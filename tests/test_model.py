"""Kinematics tests: loop closure, FK, task state, task Jacobians, CoM."""

import numpy as np
import pytest

from wbcsim.dynamics import closed_loop_dynamics, spanning_tree_dynamics
from wbcsim.model import (
    BODY_NAMES,
    INDEP_JOINTS,
    JOINT_EXPANSION,
    NQ_TREE,
    NV_TREE,
    KinematicsCache,
    MinimalState,
    RobotDescription,
    RobotModel,
    SpanningTreeState,
    leg_ik,
)
from wbcsim.rotations import exp_so3, wrap_angle

from conftest import random_minimal_state, random_normal, tilted_robot
from helpers import (extract_independent, forward_kinematics, log_so3, loop_jacobian,
                     perturbed, task_rows)
from closed_loop_oracle import euler_rates_from_omega, per_point_task_jacobians
from kinematics_oracle import (CACHE_FIELDS, FIELDS, einsum_tree_dynamics,
                               path_sum_kinematics, per_joint_kinematics)

EZ = np.array([0.0, 0.0, 1.0])


def tangent_difference(q2, q1, eps):
    """(q2 - q1)/eps as a 16-vector tangent on the spanning tree."""
    d = np.empty(16)
    d[0:3] = (q2.pos - q1.pos) / eps
    d[3:6] = log_so3(q2.rot @ q1.rot.T) / eps
    d[6:16] = (q2.qj - q1.qj) / eps
    return d


# -- coordinate expansion ---------------------------------------------------

def test_expand_zero(model):
    y = MinimalState(np.zeros(3), np.eye(3), np.zeros(6))
    q = model.expand_coordinates(y)
    assert np.all(q.qj == 0.0)


def test_expand_parallelogram_identity(model):
    y = MinimalState(np.zeros(3), np.eye(3), np.array([0.0, 0.3, 0.0, 0.0, -0.2, 0.0]))
    q = model.expand_coordinates(y)
    assert q.qj[1] == pytest.approx(0.3)    # q2 = q5
    assert q.qj[2] == pytest.approx(-0.3)   # q3 = -q5
    assert q.qj[6] == pytest.approx(-0.2)
    assert q.qj[7] == pytest.approx(0.2)


def test_expand_extract_roundtrip(model):
    rng = np.random.default_rng(0)
    for _ in range(20):
        y = random_minimal_state(rng)
        y2 = extract_independent(model.expand_coordinates(y))
        assert np.allclose(y2.pos, y.pos)
        assert np.allclose(y2.rot, y.rot)
        assert np.allclose(y2.qj, y.qj)
        assert np.allclose(y2.vel, y.vel)


def test_loop_jacobian_structure(model):
    G = loop_jacobian(model)
    assert np.allclose(G[:6, :6], np.eye(6))
    # column for q5 (col 7): +1 at q2, q5 rows, -1 at q3 row
    col = G[:, 7]
    assert col[6 + 1] == 1.0 and col[6 + 4] == 1.0 and col[6 + 2] == -1.0
    assert np.linalg.matrix_rank(G) == 12


def test_loop_jacobian_finite_difference(model):
    rng = np.random.default_rng(1)
    eps = 1e-7
    for _ in range(10):
        y = random_minimal_state(rng)
        u = rng.uniform(-1.0, 1.0, 12)
        qp = model.expand_coordinates(perturbed(y, u, eps))
        qm = model.expand_coordinates(perturbed(y, u, -eps))
        fd = tangent_difference(qp, qm, 2.0 * eps)
        assert np.allclose(fd, model.G @ u, atol=1e-6)


def test_constraint_forces_annihilated(model):
    # Parallelogram constraint rows on tree velocities: q2-q5=0, q2+q3=0 (both legs)
    A = np.zeros((4, 16))
    A[0, 6 + 1], A[0, 6 + 4] = 1.0, -1.0
    A[1, 6 + 1], A[1, 6 + 2] = 1.0, 1.0
    A[2, 6 + 6], A[2, 6 + 9] = 1.0, -1.0
    A[3, 6 + 6], A[3, 6 + 7] = 1.0, 1.0
    rng = np.random.default_rng(2)
    for _ in range(10):
        tau_c = A.T @ rng.normal(size=4)
        assert np.allclose(model.G.T @ tau_c, 0.0, atol=1e-14)


# -- forward kinematics -----------------------------------------------------

def independent_fk(desc, y):
    """Oracle FK via 4x4 homogeneous transforms, written independently."""
    def T(R, p):
        M = np.eye(4)
        M[:3, :3] = R
        M[:3, 3] = p
        return M

    def rot_about_y(a):
        return np.array([[np.cos(a), 0, np.sin(a)], [0, 1, 0], [-np.sin(a), 0, np.cos(a)]])

    qj = JOINT_EXPANSION @ y.qj
    world = {0: T(y.rot, y.pos)}
    from wbcsim.model import JOINT_CHILD, JOINT_PARENT
    for i in range(10):
        joint = desc.joints[i]
        Tj = T(np.eye(3), joint.origin) @ T(rot_about_y(qj[i]), np.zeros(3))
        world[JOINT_CHILD[i]] = world[JOINT_PARENT[i]] @ Tj
    return world


def test_fk_zero_configuration(model):
    y = MinimalState(np.array([0.0, 0.0, 0.5]), np.eye(3), np.zeros(6))
    fk = forward_kinematics(model, y)
    wl, wr = fk["wheel_center_l"], fk["wheel_center_r"]
    assert wl == pytest.approx([0.0, 0.175, 0.5 - 0.28])
    assert wr == pytest.approx([0.0, -0.175, 0.5 - 0.28])


def test_fk_translation_invariance(model):
    rng = np.random.default_rng(3)
    y = random_minimal_state(rng)
    d = np.array([0.3, -0.2, 0.15])
    y2 = MinimalState(y.pos + d, y.rot.copy(), y.qj.copy())
    fk1 = forward_kinematics(model, y)
    fk2 = forward_kinematics(model, y2)
    for name in BODY_NAMES:
        assert np.allclose(fk2["poses"][name][1], fk1["poses"][name][1] + d, atol=1e-12)


def test_fk_matches_homogeneous_chain_oracle(model):
    rng = np.random.default_rng(4)
    for _ in range(10):
        y = random_minimal_state(rng)
        fk = forward_kinematics(model, y)
        world = independent_fk(model.desc, y)
        for b, name in enumerate(BODY_NAMES):
            R, p = fk["poses"][name]
            assert np.allclose(p, world[b][:3, 3], atol=1e-9)
            assert np.allclose(R, world[b][:3, :3], atol=1e-9)


@pytest.mark.parametrize("robot", ["default", "tilted"])
def test_kinematics_cache_matches_per_joint_oracle(robot):
    """The path sums give every field of the per-joint recursion, at random
    tree states (the cache reads only the tree state, so the joint values
    need not satisfy the loop closure)."""
    rng = np.random.default_rng(11)
    desc = RobotDescription.default() if robot == "default" else tilted_robot(rng)
    for _ in range(50):
        state = SpanningTreeState(pos=rng.uniform(-1.0, 1.0, 3),
                                  rot=exp_so3(rng.uniform(-1.0, 1.0, 3)),
                                  qj=rng.uniform(-3.0, 3.0, NQ_TREE),
                                  vel=rng.uniform(-2.0, 2.0, NV_TREE))
        kc = KinematicsCache(desc, None, state)
        expected = per_joint_kinematics(desc, state)
        for name in FIELDS:
            np.testing.assert_allclose(getattr(kc, name), expected[name],
                                       rtol=0.0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("robot", ["default", "tilted"])
def test_batched_state_pass_matches_per_term_oracle(robot):
    """Every cache field, and the tree dynamics' H and C, equal the path sums
    with one cross product per term and the per-body einsums, at random
    tree states."""
    rng = np.random.default_rng(12)
    desc = RobotDescription.default() if robot == "default" else tilted_robot(rng)
    for _ in range(50):
        state = SpanningTreeState(pos=rng.uniform(-1.0, 1.0, 3),
                                  rot=exp_so3(rng.uniform(-1.0, 1.0, 3)),
                                  qj=rng.uniform(-3.0, 3.0, NQ_TREE),
                                  vel=rng.uniform(-2.0, 2.0, NV_TREE))
        kc = KinematicsCache(desc, None, state)
        expected = path_sum_kinematics(desc, state)
        for name in CACHE_FIELDS:
            np.testing.assert_allclose(getattr(kc, name), expected[name],
                                       rtol=0.0, atol=1e-12, err_msg=name)
        H, C = einsum_tree_dynamics(desc, expected)
        dyn = spanning_tree_dynamics(kc)
        np.testing.assert_allclose(dyn.H, H, rtol=0.0, atol=1e-12, err_msg="H")
        np.testing.assert_allclose(dyn.C, C, rtol=0.0, atol=1e-12, err_msg="C")


# -- contact points ---------------------------------------------------------

def test_contact_point_flat(model):
    y = MinimalState(np.array([0.0, 0.0, 0.5]), np.eye(3), np.zeros(6))
    cl = closed_loop_dynamics(model, model.kinematics(y), EZ, EZ)
    p_cl, p_cr = cl.p_cl, cl.p_cr
    wl = forward_kinematics(model, y)["wheel_center_l"]
    assert np.allclose(p_cl, wl - 0.09 * EZ)
    assert p_cl[2] == pytest.approx(wl[2] - 0.09)


def test_contact_point_slope_geometry(model):
    y = MinimalState(np.array([0.0, 0.0, 0.5]), np.eye(3), np.zeros(6))
    n = np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5)])
    p_cl = closed_loop_dynamics(model, model.kinematics(y), n, EZ).p_cl
    wl = forward_kinematics(model, y)["wheel_center_l"]
    assert np.allclose(wl - p_cl, 0.09 * n)
    assert np.linalg.norm(wl - p_cl) == pytest.approx(0.09, abs=1e-12)


def test_contact_point_rejects_bad_normals(model):
    y = MinimalState(np.array([0.0, 0.0, 0.5]), np.eye(3), np.zeros(6))
    with pytest.raises(ValueError):
        closed_loop_dynamics(model, model.kinematics(y), np.array([0.0, 0.0, 2.0]), EZ)
    with pytest.raises(ValueError):
        closed_loop_dynamics(model, model.kinematics(y), EZ, np.array([0.0, 0.0, -1.0]))


# -- task state -------------------------------------------------------------

def task_pass(model, y, n_l, n_r):
    """The task pass of y at the contact points of the given normals."""
    return task_rows(model, model.kinematics(y), n_l, n_r)


def symmetric_stance(model, h=0.25, x=0.0):
    """Level, symmetric crouch with wheels below hips and base height h."""
    r_w = model.desc.wheel_radius
    l1 = 0.14
    q1 = float(np.arccos((h - r_w) / (2 * l1)))
    qj = np.array([q1, -2 * q1, 0.0, q1, -2 * q1, 0.0])
    return MinimalState(np.array([x, 0.0, h]), np.eye(3), qj)


def test_task_state_symmetric(model):
    y = symmetric_stance(model, 0.25)
    kc = model.kinematics(y)
    tj = task_rows(model, kc, EZ, EZ)
    phi, h, alpha, beta, gamma = tj.Lambda
    assert phi == pytest.approx(0.0, abs=1e-10)
    assert alpha == pytest.approx(0.0, abs=1e-12)
    assert beta == pytest.approx(0.0, abs=1e-12)
    # the wheels sit side by side: no offset along the heading
    cl = closed_loop_dynamics(model, kc, EZ, EZ)
    assert (cl.p_cl - cl.p_cr) @ kc.heading_axis[0] == pytest.approx(0.0, abs=1e-10)
    assert h == pytest.approx(0.25, abs=1e-9)


def test_task_state_height_tracks_base(model):
    y = symmetric_stance(model, 0.25)
    ts = task_pass(model, y, EZ, EZ)
    assert ts.Lambda[1] == pytest.approx(0.25, abs=1e-9)


def test_task_rates_match_finite_difference(model):
    rng = np.random.default_rng(5)
    eps = 1e-6
    for _ in range(8):
        y = random_minimal_state(rng)
        lam_p = task_pass(model, perturbed(y, y.vel, eps), EZ, EZ).Lambda
        lam_m = task_pass(model, perturbed(y, y.vel, -eps), EZ, EZ).Lambda
        fd = wrap_angle(lam_p - lam_m) / (2 * eps)
        fd[1] = y.vel[2]   # height rate differentiates the base motion only
        ts = task_pass(model, y, EZ, EZ)
        assert np.allclose(ts.Lambda_dot, fd, atol=1e-6)


def test_task_state_yaw_invariance(model):
    rng = np.random.default_rng(6)
    y = random_minimal_state(rng, with_velocity=False)
    ts = task_pass(model, y, EZ, EZ)
    ang = 0.7
    Rz = exp_so3(np.array([0.0, 0.0, ang]))
    y2 = MinimalState(Rz @ y.pos, Rz @ y.rot, y.qj.copy())
    ts2 = task_pass(model, y2, EZ, EZ)
    assert np.allclose(ts2.Lambda[:4], ts.Lambda[:4], atol=1e-9)
    assert wrap_angle(ts2.Lambda[4] - ts.Lambda[4] - ang) == pytest.approx(0.0, abs=1e-9)


# -- task Jacobians ---------------------------------------------------------

def task_values(model, y):
    """(h, beta, r_com_x, alpha, phi, gamma) in task-Jacobian row order.

    The height entry uses the base z only: contact points are an exogenous
    measurement in the height task, so its Jacobian differentiates the base
    motion alone.
    """
    tj = task_pass(model, y, EZ, EZ)
    phi, h, alpha, beta, gamma = tj.Lambda
    return np.array([y.pos[2], beta, tj.Lambda_com[0], alpha, phi, gamma])


def test_task_jacobian_height_row(model):
    y = symmetric_stance(model)
    tj = task_rows(model, model.kinematics(y), EZ, EZ)
    row = tj.J[0]
    assert row[2] == pytest.approx(1.0, abs=1e-9)   # base vertical velocity
    assert abs(row[0]) < 1e-9 and abs(row[1]) < 1e-9


def test_task_jacobians_match_finite_difference(model):
    rng = np.random.default_rng(7)
    eps = 1e-6
    angular = [1, 3, 4, 5]
    for _ in range(8):
        y = random_minimal_state(rng)
        vp = task_values(model, perturbed(y, y.vel, eps))
        vm = task_values(model, perturbed(y, y.vel, -eps))
        fd = (vp - vm) / (2 * eps)
        for i in angular:
            fd[i] = wrap_angle(vp[i] - vm[i]) / (2 * eps)
        tj = task_rows(model, model.kinematics(y), EZ, EZ)
        assert np.allclose(tj.J @ y.vel, fd, atol=1e-5)


def test_task_jacobian_bias_matches_second_difference(model):
    rng = np.random.default_rng(8)
    eps = 1e-4
    for _ in range(6):
        y = random_minimal_state(rng)
        v0 = task_values(model, y)
        vp = task_values(model, perturbed(y, y.vel, eps))
        vm = task_values(model, perturbed(y, y.vel, -eps))
        # second difference along the flow (udot = 0): d2(task)/dt2 = Jdot u
        fd2 = (vp - 2 * v0 + vm) / eps**2
        tj = task_rows(model, model.kinematics(y), EZ, EZ)
        assert np.allclose(tj.Jdot_u, fd2, atol=1e-4)


def finite_difference_jdot_u(model, y, n_l, n_r, eps=1e-6):
    """Jdot*u_y by central differencing of the analytic task rows along the
    state flow (the method the library used before the analytic form)."""
    Jp = task_rows(model, model.kinematics(perturbed(y, y.vel, eps)), n_l, n_r).J
    Jm = task_rows(model, model.kinematics(perturbed(y, y.vel, -eps)), n_l, n_r).J
    return ((Jp - Jm) / (2.0 * eps)) @ y.vel


@pytest.mark.parametrize("normals", ["vertical", "slope"])
def test_task_jacobian_bias_matches_finite_difference_oracle(model, normals):
    rng = np.random.default_rng(12)
    if normals == "vertical":
        n_l = n_r = EZ
    else:
        a = np.radians(15.0)
        n_l = np.array([-np.sin(a), 0.0, np.cos(a)])
        n_r = np.array([0.1, -0.2, 1.0]) / np.linalg.norm([0.1, -0.2, 1.0])
    for _ in range(20):
        y = random_minimal_state(rng)
        tj = task_rows(model, model.kinematics(y), n_l, n_r)
        fd = finite_difference_jdot_u(model, y, n_l, n_r)
        assert np.allclose(tj.Jdot_u, fd, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("robot", ["default", "tilted"])
def test_task_jacobians_match_per_point_oracle(robot):
    """Both legs' rows from the cache's point pass equal the rows built one
    point Jacobian and one pendulum angle at a time."""
    rng = np.random.default_rng(13)
    model = RobotModel(RobotDescription.default() if robot == "default" else tilted_robot(rng))
    for _ in range(50):
        y = random_minimal_state(rng)
        n_l, n_r = random_normal(rng), random_normal(rng)
        tj = task_rows(model, model.kinematics(y), n_l, n_r)
        expected = per_point_task_jacobians(model, model.kinematics(y), n_l, n_r)
        for name in ("J", "Jdot_u", "Lambda", "Lambda_dot", "Lambda_com", "r_z"):
            np.testing.assert_allclose(getattr(tj, name), getattr(expected, name),
                                       rtol=0.0, atol=1e-12, err_msg=name)


def test_euler_rows_match_inverted_rate_map(model):
    """The roll, pitch and yaw rows' base angular columns are E^-1, written
    in closed form from the heading axis; the oracle inverts E built from
    the Euler angles.  Orientations cover every yaw and pitch up to 1.4 rad."""
    rng = np.random.default_rng(14)
    up = np.array([0.0, 0.0, 1.0])
    for _ in range(200):
        y = random_minimal_state(rng)
        y.rot = (exp_so3([0.0, 0.0, rng.uniform(-np.pi, np.pi)])
                 @ exp_so3([0.0, rng.uniform(-1.4, 1.4), 0.0])
                 @ exp_so3([rng.uniform(-1.4, 1.4), 0.0, 0.0]))
        tj = task_rows(model, model.kinematics(y), up, up)
        np.testing.assert_allclose(tj.J[[3, 1, 5], 3:6],
                                   euler_rates_from_omega(y.rot), rtol=0.0, atol=1e-12)


# -- CoM --------------------------------------------------------------------

def test_com_matches_brute_force(model):
    rng = np.random.default_rng(9)
    for _ in range(10):
        y = random_minimal_state(rng)
        fk = forward_kinematics(model, y)
        num = np.zeros(3)
        M = 0.0
        for b, name in enumerate(BODY_NAMES):
            R, p = fk["poses"][name]
            m = model.desc.bodies[b].mass
            num += m * (p + R @ model.desc.bodies[b].com)
            M += m
        com = num / M
        p_com, mass = model.kinematics(y).com
        assert np.allclose(p_com, com, atol=1e-12)
        assert mass == pytest.approx(M)


def test_com_upright_stance_centered(model):
    # straight-leg zero configuration: every CoM lies in the x = 0 plane
    y = MinimalState(np.array([0.0, 0.0, 0.4]), np.eye(3), np.zeros(6))
    assert task_pass(model, y, EZ, EZ).Lambda_com[0] == pytest.approx(0.0, abs=1e-6)


def test_com_rates_match_finite_difference(model):
    rng = np.random.default_rng(10)
    eps = 1e-6
    for _ in range(6):
        y = random_minimal_state(rng)
        cp = task_pass(model, perturbed(y, y.vel, eps), EZ, EZ)
        cm = task_pass(model, perturbed(y, y.vel, -eps), EZ, EZ)
        cs = task_pass(model, y, EZ, EZ).Lambda_com
        assert cs[1] == pytest.approx(
            (cp.Lambda_com[0] - cm.Lambda_com[0]) / (2 * eps), abs=1e-5)
        # forward rate is the CoM velocity along the heading, excluding the
        # rotation of the heading axis itself
        kc = model.kinematics(y)
        com_p, _ = model.kinematics(perturbed(y, y.vel, eps)).com
        com_m, _ = model.kinematics(perturbed(y, y.vel, -eps)).com
        head = kc.R[0] @ np.array([1.0, 0.0, 0.0])
        x_n = np.array([head[0], head[1], 0.0])
        x_n /= np.linalg.norm(x_n)
        assert cs[3] == pytest.approx(
            x_n @ (com_p - com_m) / (2 * eps), abs=1e-5)


# -- description validation -------------------------------------------------

def test_description_rejects_bad_mass():
    desc = RobotDescription.default()
    import copy
    bad = copy.deepcopy(desc)
    bad.bodies[0].mass = -1.0
    with pytest.raises(ValueError):
        RobotDescription(bodies=bad.bodies, joints=bad.joints,
                         wheel_radius=bad.wheel_radius, torque_limit=bad.torque_limit)


def test_leg_ik_roundtrip(model):
    rng = np.random.default_rng(11)
    for _ in range(10):
        q_hip = rng.uniform(-0.8, 1.2)
        q_knee = rng.uniform(-2.2, -0.3)
        qj = np.array([q_hip, q_knee, 0.0, 0.0, -1.0, 0.0])
        y = MinimalState(np.zeros(3), np.eye(3), qj)
        fk = forward_kinematics(model, y)
        hip = model.desc.joints[0].origin
        target = fk["wheel_center_l"] - hip
        qh, qk = leg_ik(model.desc, target)
        assert qh == pytest.approx(q_hip, abs=1e-9)
        assert qk == pytest.approx(q_knee, abs=1e-9)
