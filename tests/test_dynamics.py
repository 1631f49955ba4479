"""Dynamics tests against an independent recursive Newton-Euler oracle."""

import dataclasses

import numpy as np
import pytest

from wbcsim.dynamics import closed_loop_dynamics, spanning_tree_dynamics
from wbcsim.model import (
    JOINT_CHILD,
    JOINT_PARENT,
    MinimalState,
    NV_TREE,
    WHEEL_L,
    WHEEL_R,
    RobotDescription,
    RobotModel,
)
from wbcsim.rotations import hat

from closed_loop_oracle import (array_closed_loop_dynamics, contact_frame, friction_matrix,
                                per_wheel_closed_loop_dynamics)
from conftest import random_minimal_state, random_normal, tilted_robot
from helpers import perturbed

EZ = np.array([0.0, 0.0, 1.0])
GRAV = 9.81


def rnea_oracle(desc, state, udot, gravity=GRAV):
    """Inverse dynamics tau = H(q) udot + C(q, u) via a backward force pass.

    Written independently of the library's Jacobian-projection assembly.
    """
    import numpy as np

    g_vec = np.array([0.0, 0.0, -gravity])
    n = len(desc.bodies)
    R = [None] * n
    o = [None] * n
    w = [None] * n
    wd = [None] * n
    ao = [None] * n
    axis_w = [None] * 10
    jo_w = [None] * 10

    R[0], o[0] = state.rot, state.pos
    w[0], wd[0], ao[0] = state.vel[3:6], udot[3:6], udot[0:3]

    def roty(a):
        c, s = np.cos(a), np.sin(a)
        return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])

    for i in range(10):
        p, c = JOINT_PARENT[i], JOINT_CHILD[i]
        joint = desc.joints[i]
        jo_w[i] = o[p] + R[p] @ joint.origin
        axis_w[i] = R[p] @ joint.axis
        R[c] = R[p] @ roty(state.qj[i])
        o[c] = jo_w[i]
        r = o[c] - o[p]
        qd, qdd = state.vel[6 + i], udot[6 + i]
        w[c] = w[p] + axis_w[i] * qd
        wd[c] = wd[p] + axis_w[i] * qdd + np.cross(w[p], axis_w[i]) * qd
        ao[c] = ao[p] + np.cross(wd[p], r) + np.cross(w[p], np.cross(w[p], r))

    # net force/moment (about the body origin) for each body
    f = [None] * n
    m_o = [None] * n
    for b in range(n):
        body = desc.bodies[b]
        rc = R[b] @ body.com
        a_com = ao[b] + np.cross(wd[b], rc) + np.cross(w[b], np.cross(w[b], rc))
        I_w = R[b] @ body.inertia @ R[b].T
        f[b] = body.mass * (a_com - g_vec)
        m_o[b] = I_w @ wd[b] + np.cross(w[b], I_w @ w[b]) + np.cross(rc, f[b])

    # backward accumulation of subtree wrenches about each body origin
    children = {b: [] for b in range(n)}
    for i in range(10):
        children[JOINT_PARENT[i]].append((i, JOINT_CHILD[i]))

    F = [None] * n
    M = [None] * n

    def accumulate(b):
        Fb, Mb = f[b].copy(), m_o[b].copy()
        for i, c in children[b]:
            Fc, Mc = accumulate(c)
            Fb += Fc
            Mb += Mc + np.cross(o[c] - o[b], Fc)
        F[b], M[b] = Fb, Mb
        return Fb, Mb

    accumulate(0)
    tau = np.empty(NV_TREE)
    tau[0:3] = F[0]
    tau[3:6] = M[0]
    for i in range(10):
        c = JOINT_CHILD[i]
        tau[6 + i] = axis_w[i] @ (M[c] + np.cross(o[c] - jo_w[i], F[c]))
    return tau


@pytest.fixture(scope="module")
def states(model):
    rng = np.random.default_rng(20)
    return [random_minimal_state(rng) for _ in range(10)]


def test_bias_is_gravity_at_rest(model):
    y = MinimalState(np.array([0.1, -0.2, 0.4]), np.eye(3),
                     np.array([0.4, -0.9, 0.0, 0.2, -1.1, 0.0]))
    kc = model.kinematics(y)
    dyn = spanning_tree_dynamics(kc)
    M = model.desc.total_mass
    # LHS convention H udot + C = tau: gravity bias is +M g e_z on the base
    # linear rows (free fall then gives udot_z = -g)
    assert np.allclose(dyn.C[0:3], [0.0, 0.0, M * GRAV], atol=1e-10)


def test_inertia_matches_unit_acceleration_oracle(model, states):
    for y in states:
        q = model.expand_coordinates(y)
        kc = model.kinematics(y)
        dyn = spanning_tree_dynamics(kc)
        C_oracle = rnea_oracle(model.desc, q, np.zeros(NV_TREE))
        assert np.allclose(dyn.C, C_oracle, atol=1e-9)
        for j in range(NV_TREE):
            e = np.zeros(NV_TREE)
            e[j] = 1.0
            col = rnea_oracle(model.desc, q, e) - C_oracle
            assert np.allclose(dyn.H[:, j], col, atol=1e-9)


def test_inertia_symmetric_positive_definite(model, states):
    for y in states:
        dyn = spanning_tree_dynamics(model.kinematics(y))
        assert np.allclose(dyn.H, dyn.H.T, atol=1e-10)
        assert np.linalg.eigvalsh(dyn.H).min() > 0.0


def test_closed_loop_reduction(model, states):
    for y in states:
        kc = model.kinematics(y)
        dyn = spanning_tree_dynamics(kc)
        cl = closed_loop_dynamics(model, model.kinematics(y), EZ, EZ)
        G = model.G
        assert np.allclose(cl.H_y, G.T @ dyn.H @ G, atol=1e-12)
        assert np.allclose(cl.C_y, G.T @ dyn.C, atol=1e-12)
        # kinetic energy preserved by the reduction
        u = G @ y.vel
        assert y.vel @ cl.H_y @ y.vel == pytest.approx(u @ dyn.H @ u, abs=1e-10)


def test_closed_loop_spd_scan(model):
    rng = np.random.default_rng(21)
    for _ in range(1000):
        y = random_minimal_state(rng, with_velocity=False)
        cl = closed_loop_dynamics(model, model.kinematics(y), EZ, EZ)
        assert np.allclose(cl.H_y, cl.H_y.T, atol=1e-10)
        assert np.linalg.eigvalsh(cl.H_y).min() > 0.0


@pytest.mark.parametrize("robot", ["default", "tilted"])
def test_closed_loop_dynamics_matches_per_wheel_oracle(robot):
    """Both wheels at once, from the cache's per-state part, give every field
    of the per-wheel form; a second normal set on the same cache reuses the
    per-state part and still matches."""
    rng = np.random.default_rng(25)
    model = RobotModel(RobotDescription.default() if robot == "default" else tilted_robot(rng))
    for _ in range(50):
        y = random_minimal_state(rng)
        kc = model.kinematics(y)
        for _ in range(2):
            n_l, n_r = random_normal(rng), random_normal(rng)
            mu = rng.uniform(0.2, 1.0)
            cl = closed_loop_dynamics(model, kc, n_l, n_r, mu=mu)
            expected = per_wheel_closed_loop_dynamics(model, model.kinematics(y), n_l, n_r, mu)
            for name in ("H_y", "C_y", "G", "J_gc", "J_xz", "J_y", "Jdot_xz_u", "K",
                         "n", "f", "p_cl", "p_cr"):
                np.testing.assert_allclose(getattr(cl, name), getattr(expected, name),
                                           rtol=0.0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("robot", ["default", "tilted"])
def test_float_contact_pass_matches_array_form(robot):
    """The per-normal part on Python floats gives every field of the array
    form it replaced: over slips past, near and inside the friction clamp's
    saturation on either side, and normals within about 1e-2 rad of the
    heading, where the frames turn fastest."""
    rng = np.random.default_rng(26)
    model = RobotModel(RobotDescription.default() if robot == "default" else tilted_robot(rng))
    clamps = set()
    for i in range(60):
        y = random_minimal_state(rng)
        y.vel *= (1.0, 0.05, 0.005)[i % 3]
        kc = model.kinematics(y)
        normals = [random_normal(rng), random_normal(rng)]
        if i % 4 == 0:
            head = kc.R[0][:, 0]
            near = np.copysign(1.0, head[2]) * head + 1e-2 * EZ
            normals[i % 8 == 0] = near / np.linalg.norm(near)
        mu = rng.uniform(0.2, 1.0)
        got = closed_loop_dynamics(model, kc, *normals, mu=mu)
        want = array_closed_loop_dynamics(model, kc, *normals, mu=mu)
        for name in ("J_gc", "J_xz", "J_y", "Jdot_xz_u", "K", "n", "f", "p_cl", "p_cr"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                       rtol=0.0, atol=1e-12, err_msg=name)
        # clamp(v_y / FRICTION_V_REF, -1, 1) of each wheel, whole when saturated
        clamps.update(np.trunc(got.f / -mu).tolist())
    assert clamps == {-1.0, 0.0, 1.0}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("normal, problem", [
    ([0.0, 0.0, 2.0], "is not unit length"),
    ([0.0, 0.0, -1.0], "must point into the upper hemisphere"),
    ([1.0, 0.0, 1e-9], "is parallel to the heading"),   # the heading is +x
])
def test_closed_loop_dynamics_rejects_bad_normal_naming_side(model, side, normal, problem):
    """The run path and its array-form oracle reject the same normals."""
    y = MinimalState(np.array([0.0, 0.0, 0.5]), np.eye(3), np.zeros(6))
    normals = [EZ, EZ]
    normals[side == "right"] = np.array(normal)
    for build in (closed_loop_dynamics, array_closed_loop_dynamics):
        with pytest.raises(ValueError, match=f"^{side} ground normal {problem}$"):
            build(model, model.kinematics(y), *normals)


def test_coriolis_skew_proxy(model, states):
    eps = 1e-6
    for y in states:
        u = y.vel
        kc = model.kinematics(y)
        H0 = spanning_tree_dynamics(kc).H
        Hp = spanning_tree_dynamics(model.kinematics(perturbed(y, u, eps))).H
        Hm = spanning_tree_dynamics(model.kinematics(perturbed(y, u, -eps))).H
        Hdot = (Hp - Hm) / (2 * eps)
        y0 = dataclasses.replace(y, vel=np.zeros(12))
        C_vel = (spanning_tree_dynamics(kc).C
                 - spanning_tree_dynamics(model.kinematics(y0)).C)
        u16 = model.G @ u
        # gravity cancels in C_vel (same q, u = 0 subtracted)
        val = u16 @ Hdot @ u16 - 2 * (u16 @ C_vel)
        assert abs(val) < 1e-6 * max(1.0, abs(u16 @ Hdot @ u16))


def test_contact_frame_identity():
    F = contact_frame(EZ, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(F, np.eye(3), atol=1e-12)


def test_contact_frame_tilted():
    ang = np.deg2rad(15.0)
    n = np.array([np.sin(ang), 0.0, np.cos(ang)])
    F = contact_frame(n, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(F[:, 2], n)
    assert F[:, 0] @ np.array([np.cos(ang), 0.0, -np.sin(ang)]) == pytest.approx(1.0)
    assert np.allclose(F.T @ F, np.eye(3), atol=1e-12)


def test_contact_frame_properties():
    rng = np.random.default_rng(22)
    for _ in range(50):
        v = rng.normal(size=3)
        v[2] = abs(v[2]) + 0.3
        n = v / np.linalg.norm(v)
        h = rng.normal(size=3)
        if np.linalg.norm(h - (h @ n) * n) < 1e-6:
            continue
        F = contact_frame(n, h)
        assert np.allclose(F.T @ F, np.eye(3), atol=1e-12)
        assert np.linalg.det(F) == pytest.approx(1.0, abs=1e-12)


def test_contact_frame_rejects_parallel_heading():
    with pytest.raises(ValueError):
        contact_frame(EZ, EZ * 2.0)


def test_friction_matrix():
    assert np.allclose(friction_matrix(np.zeros(2)), 0.0)
    C_F = friction_matrix(np.array([0.05, -0.5]), mu=0.8)
    assert C_F[0, 1] == pytest.approx(-0.8)
    assert C_F[1, 3] == pytest.approx(0.8)
    rng = np.random.default_rng(23)
    for _ in range(50):
        C_F = friction_matrix(rng.normal(scale=3.0, size=2), mu=0.8)
        assert np.abs(C_F).max() <= 0.8 + 1e-12


def material_point_fd_velocity(model, y, body, p0, eps=1e-7):
    """FD velocity of the wheel material point currently at p0."""
    kc0 = model.kinematics(y)
    local = kc0.R[body].T @ (p0 - kc0.o[body])

    def pos(s):
        kc = model.kinematics(s)
        return kc.o[body] + kc.R[body] @ local

    return (pos(perturbed(y, y.vel, eps)) - pos(perturbed(y, y.vel, -eps))) / (2 * eps)


def test_contact_jacobian_matches_material_point_fd(model, states):
    for y in states:
        cl = closed_loop_dynamics(model, model.kinematics(y), EZ, EZ)
        v_l = material_point_fd_velocity(model, y, WHEEL_L, cl.p_cl)
        v_r = material_point_fd_velocity(model, y, WHEEL_R, cl.p_cr)
        # both wheels' contact frame, from the oracle rather than the program
        F = contact_frame(EZ, model.kinematics(y).R[0][:, 0])
        # rows (left, right) per frame axis: J_xz rows (0, 2) for x,
        # J_y rows (0, 1) for y, J_xz rows (1, 3) for z
        for k, J in enumerate([cl.J_xz[[0, 2]], cl.J_y, cl.J_xz[[1, 3]]]):
            assert J[0] @ y.vel == pytest.approx(F[:, k] @ v_l, abs=1e-5)
            assert J[1] @ y.vel == pytest.approx(F[:, k] @ v_r, abs=1e-5)


def test_contact_jacobian_bias_matches_constraint_drift(model, states):
    # d/dt (J^{x,z} u_y) along the flow with udot = 0 equals Jdot_xz * u
    eps = 1e-5
    for y in states:
        def c_val(s):
            cl = closed_loop_dynamics(model, model.kinematics(s), EZ, EZ)
            return cl.J_xz @ s.vel

        yp, ym = perturbed(y, y.vel, eps), perturbed(y, y.vel, -eps)
        yp.vel = y.vel.copy()
        ym.vel = y.vel.copy()
        fd = (c_val(yp) - c_val(ym)) / (2 * eps)
        cl = closed_loop_dynamics(model, model.kinematics(y), EZ, EZ)
        assert np.allclose(cl.Jdot_xz_u, fd, atol=1e-4)


def test_contact_jacobian_opposite_leg_decoupled(model, states):
    # u_y joint order: q1, q5, q4 (left), q6, q10, q9 (right)
    for y in states:
        cl = closed_loop_dynamics(model, model.kinematics(y), EZ, EZ)
        for J in (cl.J_xz[[0, 2]], cl.J_y, cl.J_xz[[1, 3]]):
            assert np.allclose(J[0, 9:12], 0.0, atol=1e-12)   # left row, right joints
            assert np.allclose(J[1, 6:9], 0.0, atol=1e-12)    # right row, left joints


def test_constraint_force_annihilation_sampled(model, states):
    # G^T tau_c = 0 for equal-and-opposite parallelogram force patterns
    rng = np.random.default_rng(24)
    A = np.zeros((4, 16))
    A[0, 6 + 1], A[0, 6 + 4] = 1.0, -1.0
    A[1, 6 + 1], A[1, 6 + 2] = 1.0, 1.0
    A[2, 6 + 6], A[2, 6 + 9] = 1.0, -1.0
    A[3, 6 + 6], A[3, 6 + 7] = 1.0, 1.0
    for _ in range(20):
        tau_c = A.T @ rng.normal(size=4)
        assert np.allclose(model.G.T @ tau_c, 0.0, atol=1e-13)
