"""Pose PD / balance LQR tests, with SciPy's Riccati solver as the oracle."""

import itertools
from importlib.resources import files

import numpy as np
import pytest
import scipy.linalg

from wbcsim.task_control import (
    DEFAULT_KP,
    DEFAULT_Q,
    CareError,
    assemble_task_stack,
    balance_accel,
    is_hurwitz,
    lqr_gain,
    pd_accel,
    pendulum_state_matrices,
)
from wbcsim.model import TASK_NAMES, TaskJacobians
from wbcsim.scenario import GAIN_LIMIT, WEIGHT_FLOOR, Scenario, load_scenario
from wbcsim.simulator import Controller
from wbcsim.terrain import FlatTerrain

from helpers import CountingGainScheduler, balance_constraints_residual

GRAV = 9.81


# -- PD pose tasks ----------------------------------------------------------

def test_pd_zero_error():
    a = pd_accel(np.zeros(5), np.zeros(5), np.zeros(5), DEFAULT_KP, np.sqrt(DEFAULT_KP))
    assert np.allclose(a, 0.0)


def test_pd_height_example():
    kp = np.array([100.0] * 5)
    L = np.zeros(5)
    ref = np.zeros(5)
    ref[1] = 0.05                              # height error 0.05 m
    a = pd_accel(ref, L, np.zeros(5), kp, np.sqrt(kp))
    assert a[1] == pytest.approx(5.0)
    Ldot = np.zeros(5)
    Ldot[1] = 0.1                              # rising at 0.1 m/s: damped by kd = 10
    a = pd_accel(ref, L, Ldot, kp, np.sqrt(kp))
    assert a[1] == pytest.approx(4.0)


def test_pd_yaw_wraps():
    g = np.ones(5)
    ref = np.zeros(5)
    L = np.zeros(5)
    ref[4], L[4] = 3.1, -3.1                    # error wraps to -(2pi - 6.2)
    a = pd_accel(ref, L, np.zeros(5), g, g)
    assert a[4] == pytest.approx(6.2 - 2 * np.pi, abs=1e-12)
    # height is a length, never wrapped
    ref2 = np.zeros(5)
    ref2[1] = 7.0
    a2 = pd_accel(ref2, np.zeros(5), np.zeros(5), g, g)
    assert a2[1] == pytest.approx(7.0)


def test_pd_affine_in_error():
    rng = np.random.default_rng(30)
    kp = rng.uniform(1, 100, 5)
    ref, Ldot = rng.normal(size=5) * 0.3, rng.normal(size=5)
    a1 = pd_accel(ref, np.zeros(5), Ldot, kp, np.sqrt(kp))
    a2 = pd_accel(2 * ref, np.zeros(5), 2 * Ldot, kp, np.sqrt(kp))
    assert np.allclose(a2, 2 * a1, atol=1e-12)


def test_controller_damps_with_sqrt_kp(model):
    kp = np.array([100.0, 400.0, 25.0, 1.0, 49.0])
    c = Controller(model, Scenario(terrain=FlatTerrain(), kp=kp))
    assert np.array_equal(c.kp, kp)
    assert np.allclose(c.kd, [10.0, 20.0, 5.0, 1.0, 7.0])
    c = Controller(model, Scenario(terrain=FlatTerrain()))
    assert np.array_equal(c.kp, DEFAULT_KP)
    assert np.allclose(c.kd, [10.0, 20.0, 20.0, 20.0, np.sqrt(50.0)])


# -- LQR --------------------------------------------------------------------

def test_care_residual_and_oracle_nominal():
    d = lqr_gain(0.25)
    resid = np.linalg.norm(d.A.T @ d.P + d.P @ d.A
                           - d.P @ d.B @ d.B.T @ d.P / d.R + d.Q)
    assert resid < 1e-8
    P_oracle = scipy.linalg.solve_continuous_are(d.A, d.B, d.Q, np.array([[d.R]]))
    assert np.allclose(d.P, P_oracle, atol=1e-6)
    K_oracle = (d.B.T @ P_oracle / d.R).ravel()
    assert np.allclose(d.K, K_oracle, atol=1e-6)


def _bundled_balance_weights():
    """Each distinct (Q diagonal, R) of the bundled scenarios, DEFAULT_Q
    where none is set, named after the first scenario using it."""
    weights = {}
    for scn in sorted(files("wbcsim").joinpath("data/scenarios").iterdir(),
                      key=lambda f: f.name):
        sc = load_scenario(str(scn), {})
        q = DEFAULT_Q.diagonal() if sc.lqr_q is None else sc.lqr_q
        weights.setdefault((tuple(q), sc.lqr_r), scn.name.removesuffix(".scn"))
    return [pytest.param(q, r, id=name) for (q, r), name in weights.items()]


@pytest.mark.parametrize("q, r", _bundled_balance_weights())
def test_care_matches_scipy_over_scheduled_heights(q, r):
    """The Newton-Kleinman solve gives SciPy's CARE solution (an ordered
    generalized Schur method) over the pendulum heights the scheduler asks
    for, clamped at 0.05 m, for each bundled weight set."""
    Q = np.diag(np.asarray(q, dtype=float))
    for r_z in np.linspace(0.05, 0.5, 19):
        d = lqr_gain(r_z, Q, r)
        P = scipy.linalg.solve_continuous_are(d.A, d.B, Q, np.array([[r]]))
        np.testing.assert_allclose(d.P, P, rtol=0.0, atol=1e-12 * np.abs(P).max())


@pytest.mark.parametrize("r_z", [0.05, 0.5])
def test_care_over_the_scenario_weight_box(r_z):
    """At every corner of [WEIGHT_FLOOR, GAIN_LIMIT] for the four Q entries
    and R, the balance gain passes lqr_gain's residual check (it raises
    CareError otherwise), is stabilizing by its closed-loop eigenvalues, and
    its P is SciPy's within 1e-9 max|P|."""
    for *q, r in itertools.product((WEIGHT_FLOOR, GAIN_LIMIT), repeat=5):
        Q = np.diag(q)
        d = lqr_gain(r_z, Q, r)
        assert np.linalg.eigvals(d.A - d.B @ d.K[None, :]).real.max() < 0.0
        P = scipy.linalg.solve_continuous_are(d.A, d.B, Q, np.array([[r]]))
        np.testing.assert_allclose(d.P, P, rtol=0.0, atol=1e-9 * np.abs(P).max())


def test_care_solution_spd():
    d = lqr_gain(0.25)
    assert np.allclose(d.P, d.P.T, atol=1e-10)
    assert np.linalg.eigvalsh(d.P).min() > 0.0


def test_closed_loop_stable_over_height_range():
    rng = np.random.default_rng(31)
    for _ in range(100):
        r_z = rng.uniform(0.1, 0.4)
        Q = np.diag(rng.uniform(0.1, 200.0, 4))
        R = rng.uniform(0.1, 10.0)
        d = lqr_gain(r_z, Q, R)
        ev = np.linalg.eigvals(d.A - d.B @ d.K[None, :])
        assert ev.real.max() < 0.0


def test_hurwitz_test_agrees_with_closed_loop_eigenvalues():
    """The Routh-Hurwitz test on the closed-loop quartic calls a gain
    stabilizing exactly when every eigenvalue of A - B K has negative real
    part, over random gains of mixed signs and magnitudes."""
    rng = np.random.default_rng(36)
    stable = 0
    for _ in range(2000):
        r_z = rng.uniform(0.05, 0.5)
        K = rng.normal(size=4) * 10.0 ** rng.uniform(-1, 3, 4)
        K = np.where(rng.random(4) < 0.85, np.abs(K), K)
        A, B = pendulum_state_matrices(r_z)
        want = np.linalg.eigvals(A - B @ K[None, :]).real.max() < 0.0
        assert is_hurwitz(K, r_z) == want, (r_z, K)
        stable += want
    assert 100 < stable < 1900                  # both outcomes are exercised


def test_open_loop_structure():
    # integrator-chain form: all open-loop eigenvalues zero, pair controllable
    A, B = pendulum_state_matrices(0.25)
    assert np.allclose(np.linalg.eigvals(A), 0.0, atol=1e-12)
    ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(4)])
    assert np.linalg.matrix_rank(ctrb) == 4


def test_balance_law_settles_in_linear_sim():
    # Euler-integrate xdot = A x + B u, u = -K(x - ref), from r = 0.05 m
    d = lqr_gain(0.25)
    dt, T = 1e-3, 5.0
    x = np.array([0.05, 0.0, 0.0, 0.0])
    settle = None
    for i in range(int(T / dt)):
        u = balance_accel(d.K, np.zeros(4), x)
        x = x + dt * (d.A @ x + d.B.ravel() * u)
        if abs(x[0]) > 0.02 * 0.05:
            settle = None
        elif settle is None:
            settle = i * dt
    assert settle is not None and settle < 3.0
    assert abs(x[0]) < 1e-3


def test_balance_law_sign_flip_diverges():
    # literal error-negated form -K(ref - x) blows up; documents the sign choice
    d = lqr_gain(0.25)
    dt = 1e-3
    x = np.array([0.05, 0.0, 0.0, 0.0])
    for _ in range(2000):
        u = float(d.K @ x)                      # -balance_accel(K, 0, x)
        x = x + dt * (d.A @ x + d.B.ravel() * u)
    assert abs(x[0]) > 1.0


def test_lyapunov_monotone_decrease():
    rng = np.random.default_rng(32)
    d = lqr_gain(0.25)
    Acl = d.A - d.B @ d.K[None, :]
    dt = 1e-4
    for _ in range(10):
        e = rng.normal(size=4)
        x = 0.1 * e / np.linalg.norm(e)
        v_prev = x @ d.P @ x
        for _ in range(5000):
            x = x + dt * Acl @ x
            v = x @ d.P @ x
            assert v <= v_prev * (1.0 + 1e-9)
            v_prev = v


def test_balance_accel_linearity_and_zero():
    d = lqr_gain(0.25)
    ref = np.array([0.0, 0.0, 0.3, 0.0])
    assert balance_accel(d.K, ref, ref) == 0.0
    e = np.array([0.02, -0.1, 0.05, 0.3])
    assert balance_accel(d.K, ref, ref + 2 * e) == pytest.approx(
        2 * balance_accel(d.K, ref, ref + e), abs=1e-12)


def test_gain_scheduler_threshold():
    sched = CountingGainScheduler()
    d1 = sched.gain(0.25)
    assert sched.gain(0.255) is d1             # within band: cached
    assert sched.solve_count == 1
    d2 = sched.gain(0.28)
    assert d2 is not d1
    assert sched.solve_count == 2
    assert not np.allclose(d1.K, d2.K)


def test_lqr_input_validation():
    with pytest.raises(ValueError):
        lqr_gain(-0.1)
    with pytest.raises(ValueError):
        lqr_gain(0.25, R=0.0)
    with pytest.raises(ValueError):
        lqr_gain(0.25, Q=np.diag([1.0, 1.0, -1.0, 1.0]))
    # extreme weights overflow the solve
    with pytest.raises(CareError, match="did not converge"):
        lqr_gain(0.25, Q=np.diag([1e200, 1.0, 1.0, 1.0]))
    with pytest.raises(CareError, match="did not converge"):
        lqr_gain(0.25, R=1e-300)
    # with q_3 = 0 the start gain is zero: its Lyapunov system is singular
    with pytest.raises(CareError, match="Riccati solve failed"):
        lqr_gain(0.25, Q=np.diag([1.0, 1.0, 0.0, 1.0]))


# -- equilibrium diagnostics ------------------------------------------------

def test_balance_residual_zero_at_equilibrium():
    m = 12.0
    r = balance_constraints_residual(np.array([0.0, -m * GRAV]), np.array([0.0, 0.25]), m)
    assert np.allclose(r, 0.0, atol=1e-12)


def test_balance_residual_linearity():
    m = 12.0
    r1 = balance_constraints_residual(np.array([3.0, -m * GRAV]), np.array([0.0, 0.25]), m)
    r2 = balance_constraints_residual(np.array([6.0, -m * GRAV]), np.array([0.0, 0.25]), m)
    assert r2[1] == pytest.approx(2 * r1[1])


# -- task stack -------------------------------------------------------------

def _random_tj(rng):
    return TaskJacobians(J=rng.normal(size=(6, 12)), Jdot_u=rng.normal(size=6),
                         Lambda=np.zeros(5), Lambda_dot=np.zeros(5),
                         Lambda_com=np.zeros(4), r_z=0.25)


def test_stack_order_and_rows():
    rng = np.random.default_rng(33)
    tj = _random_tj(rng)
    pose = rng.normal(size=5)                  # (phi, h, alpha, beta, gamma)
    b = assemble_task_stack(pose, 1.7, tj)
    assert TASK_NAMES == ("height", "pitch", "balance", "roll", "split", "yaw")
    des = [pose[1], pose[3], 1.7, pose[2], pose[0], pose[4]]
    assert b.shape == (6,)
    for i in range(6):
        assert b[i] == des[i] - tj.Jdot_u[i]


def test_stack_rejects_nonfinite():
    rng = np.random.default_rng(34)
    with pytest.raises(ValueError):
        assemble_task_stack(np.full(5, np.nan), 0.0, _random_tj(rng))


def test_qp_level_validation():
    rng = np.random.default_rng(35)
    with pytest.raises(ValueError):
        assemble_task_stack(np.zeros(4), 0.0, _random_tj(rng))
    tj = _random_tj(rng)
    tj.J[2, 5] = np.inf
    with pytest.raises(ValueError):
        assemble_task_stack(np.zeros(5), 0.0, tj)
