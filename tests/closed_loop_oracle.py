"""The per-wheel closed-loop dynamics and the per-point task rows, kept as
test oracles of ``wbcsim.dynamics.closed_loop_dynamics`` and
``wbcsim.model.RobotModel.task_jacobians``, which read both wheels and both
legs from the cache's one point pass and do their per-wheel and per-leg
3-vector math on Python floats.

Here each wheel and each leg is handled on its own: a contact frame per
wheel, a point Jacobian per contact point, wheel centre and hip, built
column by column from the world joint axes.  The Euler-rate map is built
from the Euler angles and inverted numerically, where ``task_jacobians``
writes its inverse in closed form from the heading axis.

``array_closed_loop_dynamics`` keeps the array form of the per-normal part:
both wheels' contact frames, friction clamp and rows as (2, ...) arrays.
"""

from __future__ import annotations

import numpy as np

from wbcsim.dynamics import (
    FRICTION_V_REF,
    SIDES,
    UNIT_TOL,
    ClosedLoopDynamics,
    _closed_loop_state,
    spanning_tree_dynamics,
)
from wbcsim.model import (
    BASE,
    JOINT_CHILD,
    JOINT_PATH,
    NV_MIN,
    NV_TREE,
    SHANK_L,
    SHANK_R,
    WHEEL_L,
    WHEEL_POINTS,
    WHEEL_R,
    TaskJacobians,
)
from wbcsim.rotations import cross3, cross_rows, euler_zyx, hat, rot_z

from helpers import rot_y

GIMBAL_COS_TOL = 1e-6


def euler_zyx_rate_map(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Matrix E with omega_world = E @ [roll_dot, pitch_dot, yaw_dot].

    Columns: Rz(yaw) Ry(pitch) e_x, Rz(yaw) e_y, e_z.
    """
    E = np.empty((3, 3))
    E[:, 0] = rot_z(yaw) @ rot_y(pitch) @ np.array([1.0, 0.0, 0.0])
    E[:, 1] = rot_z(yaw) @ np.array([0.0, 1.0, 0.0])
    E[:, 2] = np.array([0.0, 0.0, 1.0])
    return E


def euler_rates_from_omega(R: np.ndarray) -> np.ndarray:
    """Matrix mapping world angular velocity to (roll, pitch, yaw) rates at R.

    Near gimbal lock (|cos pitch| < GIMBAL_COS_TOL) the map is
    ill-conditioned; a least-squares inverse is returned instead of failing.
    """
    roll, pitch, yaw = euler_zyx(R)
    E = euler_zyx_rate_map(roll, pitch, yaw)
    if abs(np.cos(pitch)) < GIMBAL_COS_TOL:
        return np.linalg.pinv(E)
    return np.linalg.inv(E)


def contact_frame(n: np.ndarray, heading: np.ndarray) -> np.ndarray:
    """Orthonormal triad (columns x, y, z) with z = n and x the in-plane heading."""
    n = np.asarray(n, dtype=float)
    if not abs(np.linalg.norm(n) - 1.0) <= UNIT_TOL or n[2] <= 0.0:
        raise ValueError("normal must be unit length and upward")
    t = heading - (heading @ n) * n
    nt = np.linalg.norm(t)
    if nt < 1e-8:
        raise ValueError("heading parallel to the ground normal")
    x = t / nt
    y = cross3(n, x)
    return np.column_stack([x, y, n])


def friction_matrix(v_lat: np.ndarray, mu: float = 0.8) -> np.ndarray:
    """Saturated-linear lateral friction coefficients C_F (2x4).

    Per wheel i the lateral force is F_y,i = c_i * F_z,i with
    c_i = -mu * clamp(v_y,i / FRICTION_V_REF, -1, 1); c_i sits in wheel i's
    row at that wheel's z-force column of F_C = (F_x_l, F_z_l, F_x_r, F_z_r).
    """
    if mu < 0.0:
        raise ValueError("require mu >= 0")
    c = -mu * np.clip(np.asarray(v_lat, dtype=float) / FRICTION_V_REF, -1.0, 1.0)
    C_F = np.zeros((2, 4))
    C_F[0, 1] = c[0]
    C_F[1, 3] = c[1]
    return C_F


def point_jacobian(kc, body: int, p: np.ndarray) -> np.ndarray:
    """(3, 16) linear-velocity Jacobian of the point p fixed to `body`: the
    base translation, the base rotation about the base origin, and each
    joint on the body's path turning p about its world axis."""
    J = np.zeros((3, NV_TREE))
    J[:, 0:3] = np.eye(3)
    J[:, 3:6] = -hat(p - kc.o[BASE])
    for j in np.flatnonzero(JOINT_PATH[body]):
        J[:, 6 + j] = cross3(kc.axis_w[j], p - kc.o[JOINT_CHILD[j]])
    return J


def point_velocity(kc, body: int, p: np.ndarray) -> np.ndarray:
    return kc.v_origin[body] + cross3(kc.omega[body], p - kc.o[body])


def point_bias_acc(kc, body: int, p: np.ndarray) -> np.ndarray:
    """Acceleration of a body-fixed point for the current u with udot = 0."""
    r = p - kc.o[body]
    w = kc.omega[body]
    return (kc.a_origin_bias[body] + cross3(kc.omega_dot_bias[body], r)
            + cross3(w, cross3(w, r)))


def per_wheel_closed_loop_dynamics(model, kc, n_l, n_r, mu: float = 0.8) -> ClosedLoopDynamics:
    """Closed-loop dynamics of the state in kc at the given normals, one
    wheel at a time (contact Jacobians at the wheel material point at the
    contact, in the contact frame axes)."""
    G = model.G
    dyn = spanning_tree_dynamics(kc)
    H_y = G.T @ dyn.H @ G
    C_y = G.T @ dyn.C

    r = model.desc.wheel_radius
    wc_l, wc_r = kc.o[WHEEL_L].copy(), kc.o[WHEEL_R].copy()
    p_cl, p_cr = wc_l - r * np.asarray(n_l, float), wc_r - r * np.asarray(n_r, float)
    head = kc.R[0] @ np.array([1.0, 0.0, 0.0])
    F_l = contact_frame(n_l, head)
    F_r = contact_frame(n_r, head)

    J_l16 = point_jacobian(kc, WHEEL_L, p_cl)
    J_r16 = point_jacobian(kc, WHEEL_R, p_cr)
    J_xz16 = np.vstack([F_l[:, 0] @ J_l16, F_l[:, 2] @ J_l16,
                        F_r[:, 0] @ J_r16, F_r[:, 2] @ J_r16])
    J_y16 = np.vstack([F_l[:, 1] @ J_l16, F_r[:, 1] @ J_r16])
    J_xz = J_xz16 @ G

    v_l = point_velocity(kc, WHEEL_L, p_cl)
    v_r = point_velocity(kc, WHEEL_R, p_cr)
    C_F = friction_matrix(np.array([F_l[:, 1] @ v_l, F_r[:, 1] @ v_r]), mu)

    # J_gc in tree coordinates: (J^{x,z})^T + (J^y)^T C_F, F_C = (x_l, z_l, x_r, z_r)
    J_gc = J_xz16.T + J_y16.T @ C_F
    K = np.block([[H_y, -G.T @ J_gc], [J_xz, np.zeros((4, 4))]])

    # Constraint rows are e^T (v_center + omega_wheel x (-r n)) with a fixed
    # lever (-r n), so the drift term has no centripetal part over the lever;
    # the x-axis itself rotates with the projected heading, adding edot^T v.
    a_l = (point_bias_acc(kc, SHANK_L, wc_l)
           + cross3(kc.omega_dot_bias[WHEEL_L], p_cl - wc_l))
    a_r = (point_bias_acc(kc, SHANK_R, wc_r)
           + cross3(kc.omega_dot_bias[WHEEL_R], p_cr - wc_r))

    def x_axis_rate(F):
        x, n = F[:, 0], F[:, 2]
        t = head - (head @ n) * n
        tdot = cross3(kc.omega[0], head)
        tdot = tdot - (tdot @ n) * n
        return (tdot - (x @ tdot) * x) / np.linalg.norm(t)

    Jdot_xz_u = np.array([
        F_l[:, 0] @ a_l + x_axis_rate(F_l) @ v_l,
        F_l[:, 2] @ a_l,
        F_r[:, 0] @ a_r + x_axis_rate(F_r) @ v_r,
        F_r[:, 2] @ a_r,
    ])

    return ClosedLoopDynamics(H_y=H_y, C_y=C_y, G=G.copy(), J_gc=J_gc,
                              J_xz=J_xz, J_y=J_y16 @ G, Jdot_xz_u=Jdot_xz_u, K=K,
                              n=np.array([n_l, n_r], dtype=float), f=C_F[[0, 1], [1, 3]],
                              p_cl=p_cl, p_cr=p_cr)


def array_closed_loop_dynamics(model, kc, n_l, n_r, mu: float = 0.8) -> ClosedLoopDynamics:
    """Closed-loop dynamics of the state in kc at the given normals, from the
    cache's per-state part, with both wheels' contact frames, friction clamp
    and rows as (2, ...) arrays."""
    G = model.G
    st = _closed_loop_state(model, kc)
    head = kc.R[BASE][:, 0]
    head_dot = cross3(kc.omega[BASE], head)
    n = np.array([n_l, n_r], dtype=float)
    r = model.desc.wheel_radius
    p = kc.points[WHEEL_POINTS] - r * n

    t = head - (n @ head)[:, None] * n
    nt = np.sqrt((t * t).sum(axis=1))
    unit = np.abs(np.sqrt((n * n).sum(axis=1)) - 1.0) <= UNIT_TOL
    for side, is_unit, up, ok in zip(SIDES, unit.tolist(), (n[:, 2] > 0.0).tolist(),
                                     (nt >= 1e-8).tolist()):
        if not is_unit:
            raise ValueError(f"{side} ground normal is not unit length")
        if not up:
            raise ValueError(f"{side} ground normal must point into the upper hemisphere")
        if not ok:
            raise ValueError(f"{side} ground normal is parallel to the heading")
    x = t / nt[:, None]
    y = cross_rows(n, x)
    E = np.zeros((2, 3, 6))                  # per wheel, rows x, y, z
    E[:, 0, :3], E[:, 0, 3:] = x, -r * y
    E[:, 1, :3], E[:, 1, 3:] = y, r * x
    E[:, 2, :3] = n
    out = E @ st.wheels
    rows, v, acc = out[:, :, :NV_TREE], out[:, :, NV_TREE], out[:, :, NV_TREE + 1]
    rows_y = rows @ G

    c = -mu * np.minimum(np.maximum(v[:, 1] / FRICTION_V_REF, -1.0), 1.0)
    J_gc_rows = rows[:, ::2].copy()          # per wheel, rows x and z
    J_gc_rows[:, 1] += c[:, None] * rows[:, 1]
    J_gc = J_gc_rows.reshape(4, NV_TREE).T
    J_xz = rows_y[:, ::2].reshape(4, NV_MIN)
    K = np.zeros((NV_MIN + 4, NV_MIN + 4))
    K[:NV_MIN, :NV_MIN] = st.H_y
    K[:NV_MIN, NV_MIN:] = -G.T @ J_gc
    K[NV_MIN:, :NV_MIN] = J_xz

    Jdot_xz_u = acc[:, ::2].copy()
    Jdot_xz_u[:, 0] += (y @ head_dot) / nt * v[:, 1]
    return ClosedLoopDynamics(H_y=st.H_y, C_y=st.C_y, G=G, J_gc=J_gc,
                              J_xz=J_xz, J_y=rows_y[:, 1], Jdot_xz_u=Jdot_xz_u.ravel(), K=K,
                              n=n, f=c, p_cl=p[0], p_cr=p[1])


def per_point_task_jacobians(model, kc, n_l, n_r) -> TaskJacobians:
    """The six task rows, their Jdot*u_y terms and the task values, one
    point Jacobian per hip and wheel centre and one pendulum angle per leg."""
    r_w = model.desc.wheel_radius
    p_cl = kc.o[WHEEL_L] - r_w * np.asarray(n_l, float)
    p_cr = kc.o[WHEEL_R] - r_w * np.asarray(n_r, float)
    R = kc.R[BASE]
    x_n, nh, x_d, x_dd = kc.heading_axis
    ez = np.array([0.0, 0.0, 1.0])
    head = kc.R[BASE][:, 0]
    w = kc.omega[BASE]
    u = kc.state.vel
    Jx_n = np.zeros((3, NV_TREE))            # d(x_N)/du: base angular columns only
    Jx_n[:, 3:6] = ((np.eye(3) - np.outer(x_n, x_n)) / nh) @ np.diag(
        [1.0, 1.0, 0.0]) @ -hat(head)

    J_h = np.zeros(NV_TREE)
    J_h[2] = 1.0

    Einv = euler_rates_from_omega(kc.R[BASE])
    J_euler = np.zeros((3, NV_TREE))
    J_euler[:, 3:6] = Einv
    rd, pd, yd = Einv @ w
    c1 = cross3(ez, x_n)
    euler_bias = -Einv @ (rd * cross3(yd * ez + pd * c1, head) - pd * yd * x_n)

    def theta(hip_joint: int, wheel: int, shank: int):
        """Value, row and bias of the pendulum angle atan2(d . x_N, d_z), d = hip - wheel center."""
        hip = kc.o[BASE] + kc.R[BASE] @ model.desc.joints[hip_joint].origin
        d = hip - kc.o[wheel]
        d_d = point_velocity(kc, BASE, hip) - kc.v_origin[wheel]
        d_dd = point_bias_acc(kc, BASE, hip) - kc.a_origin_bias[wheel]
        a, b = d @ x_n, d[2]
        a_d, b_d = d_d @ x_n + d @ x_d, d_d[2]
        a_dd, b_dd = d_dd @ x_n + 2.0 * (d_d @ x_d) + d @ x_dd, d_dd[2]
        D = a * a + b * b
        Jd = point_jacobian(kc, BASE, hip) - point_jacobian(kc, shank, kc.o[wheel])
        row = (b * (x_n @ Jd + d @ Jx_n) - a * Jd[2]) / D
        bias = ((b * a_dd - a * b_dd) / D
                - 2.0 * (b * a_d - a * b_d) * (a * a_d + b * b_d) / (D * D))
        return np.arctan2(a, b), row, bias

    angle_l, row_l, bias_l = theta(0, WHEEL_L, SHANK_L)
    angle_r, row_r, bias_r = theta(5, WHEEL_R, SHANK_R)

    p_com, M = kc.com
    J_com = kc.com_jacobian
    J_mid = 0.5 * (point_jacobian(kc, SHANK_L, kc.o[WHEEL_L])
                   + point_jacobian(kc, SHANK_R, kc.o[WHEEL_R]))
    r_vec = p_com - 0.5 * (p_cl + p_cr)
    r_d = (J_com - J_mid) @ u
    r_dd = (model.desc.masses @ kc.com_bias_acc / M
            - 0.5 * (kc.a_origin_bias[WHEEL_L] + kc.a_origin_bias[WHEEL_R]))
    J_rx = x_n @ (J_com - J_mid) + r_vec @ Jx_n
    rx_bias = r_dd @ x_n + 2.0 * (r_d @ x_d) + r_vec @ x_dd

    J16 = np.vstack([J_h, J_euler[1], J_rx, J_euler[0], row_l - row_r, J_euler[2]])
    jdot_u = np.array([0.0, euler_bias[1], rx_bias, euler_bias[0],
                       bias_l - bias_r, euler_bias[2]])
    J = J16 @ model.G
    # (roll, pitch, yaw) of R = Rz(yaw) Ry(pitch) Rx(roll), read off its entries
    euler = [np.arctan2(R[2, 1], R[2, 2]), -np.arcsin(R[2, 0]), np.arctan2(R[1, 0], R[0, 0])]
    return TaskJacobians(
        J=J, Jdot_u=jdot_u,
        Lambda=np.array([angle_l - angle_r, kc.o[BASE, 2] - 0.5 * (p_cl[2] + p_cr[2]), *euler]),
        Lambda_dot=np.array([J[4], J[0], J[3], J[1], J[5]]) @ kc.y.vel,
        Lambda_com=np.array([r_vec @ x_n, x_n @ r_d + r_vec @ x_d, p_com @ x_n, x_n @ J_com @ u]),
        r_z=r_vec[2])
