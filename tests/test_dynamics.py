"""Structural and numeric properties of the manipulator models."""
from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velobs import dynamics
from velobs.dynamics import (
    INERTIA_COND_LIMIT,
    PlantState,
    SingleLinkModel,
    SingularInertiaError,
    TwoLinkArm,
    TwoLinkParams,
    grid_tables,
    inertia_solver,
    _spd2_determinant,
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


def shape_norm(theta: float) -> float:
    # Spectral norm of [[-v2, -(v1+v2)], [v1, 0]] for v = (cos t, sin t).
    v1, v2 = math.cos(theta), math.sin(theta)
    s2 = (v1 + v2) ** 2
    tr = 1.0 + s2
    disc = math.sqrt(max(tr * tr - 4.0 * s2 * v1 * v1, 0.0))
    return math.sqrt(0.5 * (tr + disc))


def unit_coriolis_gain_scan() -> float:
    """Peak of shape_norm over the unit half circle: the best point of a
    dense grid, refined by golden-section search between its neighbours."""
    thetas = np.linspace(0.0, np.pi, 4097)
    values = [shape_norm(t) for t in thetas]
    i = int(np.argmax(values))
    a = thetas[max(i - 1, 0)]
    b = thetas[min(i + 1, len(thetas) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = shape_norm(c), shape_norm(d)
    for _ in range(120):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = shape_norm(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = shape_norm(d)
    return max(fc, fd)


def test_unit_coriolis_gain_is_the_scan():
    assert unit_coriolis_gain_scan() == dynamics.UNIT_CORIOLIS_GAIN


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
    acc = arm.accel(arm.kernel(q.tolist()), arm.gravity(q).tolist(), [0.0, 0.0])
    assert np.allclose(acc, 0.0, atol=1e-12)


def test_forward_dynamics_matches_oracle_acceleration(arm, oracle):
    rng = np.random.default_rng(43)
    for _ in range(25):
        q = random_config(rng)
        v = rng.normal(size=2) * 2.0
        tau = rng.normal(size=2) * 10.0
        acc = np.array(arm.accel(arm.kernel(q.tolist()), tau.tolist(), v.tolist()))
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


# Reference scan for the construction check: cos q2 covers [-1, 1] on
# q2 in [0, pi], and the scan holds both ends exactly.
Q2_SCAN = np.linspace(0.0, np.pi, 1025)


def unchecked_kernel(params: TwoLinkParams):
    """The kernel of an arm with these parameters, built without its check."""
    arm = object.__new__(TwoLinkArm)
    object.__setattr__(arm, "params", params)
    return arm.kernel


def check_fails(kernel, q2: float) -> bool:
    """The per-point check, the closed-form eigenvalues of M(0, q2), fails."""
    try:
        _spd2_determinant(*kernel((0.0, q2))[2:5])
    except SingularInertiaError:
        return True
    return False


def closed_form_conditioning(kernel, q2: float) -> float:
    a, b, c = kernel((0.0, q2))[2:5]
    tr, disc = a + c, math.sqrt((a - c) ** 2 + 4.0 * b * b)
    return (tr + disc) / (tr - disc)


def log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@settings(database=None, deadline=None, max_examples=150)
@given(m1=log_uniform(-8.0, 8.0), m2=log_uniform(-8.0, 8.0),
       l1=log_uniform(-4.0, 4.0), l2=log_uniform(-4.0, 4.0))
def test_construction_check_is_the_dense_scan(m1, m2, l1, l2):
    # M(q) is affine in cos q2, so the worst conditioning is at cos q2 = +1
    # or -1: checking those two at construction stands for every q.
    params = TwoLinkParams(m1=m1, m2=m2, l1=l1, l2=l2)
    kernel = unchecked_kernel(params)
    failing = [q2 for q2 in Q2_SCAN if check_fails(kernel, q2)]
    try:
        TwoLinkArm(params)
    except SingularInertiaError:
        assert failing
    else:
        # Exact in real arithmetic.  In floats the closed form rounds, so an
        # interior point can cross the limit by rounding alone, and only
        # within rounding of the limit (about 1e-4 relative at 1e12).
        assert all(closed_form_conditioning(kernel, q2) <= INERTIA_COND_LIMIT * (1.0 + 1e-3)
                   for q2 in failing)


def test_construction_check_examples():
    with pytest.raises(SingularInertiaError, match="numerically singular"):
        TwoLinkArm(TwoLinkParams(m1=1.0, m2=1e-13))
    TwoLinkArm(TwoLinkParams(m1=1.0, m2=1e-11))
    # an inertia that underflows to the zero matrix is singular too
    with pytest.raises(SingularInertiaError, match=r"eigs 0, 0\)"):
        TwoLinkArm(TwoLinkParams(l1=1e-320, l2=1e-320))
    # terms that overflow a float ** are refused as the parameters' error
    for big in (dict(m1=1e308), dict(l2=1e200)):
        with pytest.raises(ValueError, match="arm parameters overflow the inertia terms"):
            TwoLinkArm(TwoLinkParams(**big))
    # terms that overflow a product give lambda_min = nan, refused as singular
    with pytest.raises(SingularInertiaError, match=r"numerically singular \(eigs nan, nan\)"):
        TwoLinkArm(TwoLinkParams(m2=1e308))
    # the kernel itself checks nothing: it evaluates a singular arm's terms
    kernel = unchecked_kernel(TwoLinkParams(m1=1.0, m2=1e-13))
    assert check_fails(kernel, 0.0) and len(kernel((0.0, 0.0))) == 9


def exceeds_limit_exactly(a: float, b: float, c: float) -> bool:
    """lambda_max > INERTIA_COND_LIMIT * lambda_min for [[a, b], [b, c]], in
    exact rational arithmetic: with lambda = (tr +- disc) / 2 the inequality
    is disc (1 + L) > tr (L - 1), squared (both sides positive, tr > 0)."""
    a, b, c, lim = (Fraction(x) for x in (a, b, c, INERTIA_COND_LIMIT))
    return ((a - c) ** 2 + 4 * b * b) * (1 + lim) ** 2 > (a + c) ** 2 * (lim - 1) ** 2


def cancelling_check_fails(kernel, q2: float) -> bool:
    """The per-point check with lambda_min = 0.5 (tr - disc), which cancels."""
    a, b, c = kernel((0.0, q2))[2:5]
    tr, disc = a + c, math.sqrt((a - c) ** 2 + 4.0 * b * b)
    return 0.5 * (tr + disc) > INERTIA_COND_LIMIT * (0.5 * (tr - disc))


def test_construction_check_near_the_limit_is_the_exact_scan():
    # m2 >> m1 and l2 >> l1 put the conditioning within rounding of the
    # limit, where 0.5 (tr - disc) cancels to a relative error near 1e-4.
    params = TwoLinkParams(m1=1e-9, m2=1.0, l1=1.0, l2=433010.91445126466)
    kernel = unchecked_kernel(params)
    scan = np.linspace(0.0, np.pi, 2049)
    exact = [q2 for q2 in scan if exceeds_limit_exactly(*kernel((0.0, q2))[2:5])]
    with pytest.raises(SingularInertiaError):
        TwoLinkArm(params)
    assert exact and all(check_fails(kernel, q2) for q2 in exact)
    # control: the cancelling formula passes both ends, so the arm would
    # construct, yet it fails inside the scan
    assert not any(cancelling_check_fails(kernel, q2) for q2 in (0.0, np.pi))
    assert any(cancelling_check_fails(kernel, q2) for q2 in scan)


def test_joint_vector_shape_is_checked(arm):
    with pytest.raises(ValueError):
        arm.inertia(np.zeros(3))
    with pytest.raises(ValueError):
        arm.coriolis(np.zeros(2), np.zeros(1))


def test_plant_state_takes_two_equal_1d_vectors():
    state = PlantState(x2=[0.5, 2], x1=[1, -1])
    assert state.x1.dtype == state.x2.dtype == float
    assert (state.x1.tolist(), state.x2.tolist()) == ([1.0, -1.0], [0.5, 2.0])
    for x1, x2 in (([0.0, 0.0], [0.0, 0.0, 0.0]), ([0.0], [0.0, 0.0]),
                   ([[0.0, 0.0]], [[0.0, 0.0]]), (0.0, 0.0)):
        with pytest.raises(ValueError, match="1-D arrays of equal length"):
            PlantState(x1, x2)


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
    assert tables.lam_min.shape == (TwoLinkArm.GRID_POINTS,)
    assert np.all(tables.lam_min > 0.0)
    assert np.all(tables.lam_max >= tables.lam_min)
    assert np.all(tables.c0 >= 0.0)


def reference_tables(model):
    """grid_tables row by row: eigvalsh of the stacked model.inertia(q) and
    model.c0_bound(q), each on one grid row."""
    grid = model.design_grid()
    w = np.linalg.eigvalsh(np.array([model.inertia(q) for q in grid]))
    return w[:, 0], w[:, -1], np.array([model.c0_bound(q) for q in grid])


def same_bits(tables, reference) -> bool:
    return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(tables, reference, strict=True))


class OneUlpArm(TwoLinkArm):
    """The arm with the coupling factor of the off-diagonal inertia term b
    one ulp higher in its kernel text."""

    KERNEL = TwoLinkArm.KERNEL.replace(
        "b = beta + coupling", f"b = beta + {math.nextafter(1.0, 2.0)!r} * coupling")


def design_models():
    arms = st.builds(
        lambda m1, m2, l1, l2: TwoLinkArm(TwoLinkParams(m1=m1, m2=m2, l1=l1, l2=l2)),
        log_uniform(-2.0, 2.0), log_uniform(-2.0, 2.0), log_uniform(-1.0, 1.0),
        log_uniform(-1.0, 1.0))
    singles = st.builds(SingleLinkModel, log_uniform(-3.0, 3.0), st.floats(0.0, 10.0))
    return st.one_of(arms, singles)


@settings(database=None, deadline=None, max_examples=40)
@given(design_models())
def test_grid_tables_are_the_per_row_reference(model):
    assert same_bits(grid_tables(model), reference_tables(model))


def test_a_one_ulp_inertia_entry_is_caught(arm):
    assert OneUlpArm.KERNEL != TwoLinkArm.KERNEL
    assert same_bits(grid_tables(arm), reference_tables(arm))
    # the grid pass evaluates the subclass's text, as its per-row reference does
    assert same_bits(grid_tables(OneUlpArm()), reference_tables(OneUlpArm()))
    assert not same_bits(grid_tables(OneUlpArm()), reference_tables(arm))


def test_grid_tables_evaluate_the_kernel_and_c0_once_not_per_row(arm):
    # calls of the kernel's and c0's code, in whatever namespace they run
    codes = {TwoLinkArm.kernel.__code__: "kernel", TwoLinkArm.c0.__code__: "c0"}
    calls = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        grid_tables(arm)
    finally:
        sys.setprofile(previous)
    assert calls == {"kernel": 1, "c0": 1}


class FineArm(TwoLinkArm):
    """The arm with a design grid twice as fine."""

    GRID_POINTS = 2 * TwoLinkArm.GRID_POINTS


def test_grid_refinement_is_converged(arm):
    fine = FineArm()
    assert len(fine.design_grid()) == 4096
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
