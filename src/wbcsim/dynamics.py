"""Spanning-tree and closed-loop equations of motion, ground contact model.

The tree EoM is  H(q) udot + C(q, u) = S^T tau_a + tau_gc  with 16
velocity coordinates; reduction through the loop-closure Jacobian G gives
the 12-dimensional closed-loop form H_y = G^T H G, C_y = G^T C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from .rotations import cross3, cross_rows

from .model import (
    KinematicsCache,
    UNIT_TOL,
    RobotModel,
    SHANK_L,
    SHANK_R,
    WHEEL_L,
    WHEEL_R,
    NV_TREE,
    NV_MIN,
)

GRAVITY = 9.81
# lateral slip speed (m/s) at which the friction coefficient saturates at mu
FRICTION_V_REF = 0.05


@dataclass
class SpanningTreeDynamics:
    H: np.ndarray                # 16x16 generalized inertia
    C: np.ndarray                # 16 bias (Coriolis + centripetal + gravity)


@dataclass
class ContactModel:
    n_l: np.ndarray
    n_r: np.ndarray
    frame_l: np.ndarray          # columns (x, y, z), z = ground normal
    frame_r: np.ndarray
    C_F: np.ndarray              # 2x4 velocity-dependent friction coefficients


@dataclass
class ClosedLoopDynamics:
    H_y: np.ndarray              # 12x12
    C_y: np.ndarray              # 12
    G: np.ndarray                # 16x12
    J_gc: np.ndarray             # 16x4 contact map (tree coordinates)
    J_xz: np.ndarray             # 4x12 rolling-constraint rows, order (x_l, z_l, x_r, z_r)
    J_y: np.ndarray              # 2x12 lateral rows, row 0 left wheel, row 1 right
    Jdot_xz_u: np.ndarray        # (4,) bias accelerations, order (x_l, z_l, x_r, z_r)
    K: np.ndarray                # 16x16 contact KKT [H_y, -G^T J_gc; J_xz, 0]
    contact: ContactModel
    p_cl: np.ndarray
    p_cr: np.ndarray


def spanning_tree_dynamics(kc: KinematicsCache) -> SpanningTreeDynamics:
    """H via composite inertia assembly, C via Newton-Euler at zero acceleration.

    All 11 bodies at once: the stacked (11, 3, 16) CoM and angular Jacobians
    of the cache are contracted with the body masses and world inertias.
    """
    desc = kc.desc
    n = len(desc.bodies)
    Jv, Jw = kc.com_jacobians, kc.angular_jacobians
    I_w = kc.R @ desc.inertias @ kc.R.transpose(0, 2, 1)
    IJw = I_w @ Jw
    mJv = desc.masses[:, None, None] * Jv
    H = np.einsum("bij,bik->jk", mJv, Jv) + np.einsum("bij,bik->jk", Jw, IJw)
    H = 0.5 * (H + H.T)          # exactly symmetric, not only up to roundoff
    w = kc.omega
    Iw = np.einsum("bij,bj->bi", I_w, w)
    f = desc.masses[:, None] * (kc.com_bias_acc - np.array([0.0, 0.0, -GRAVITY]))
    torque = np.einsum("bij,bj->bi", I_w, kc.omega_dot_bias) + cross_rows(w, Iw)
    C = Jv.reshape(3 * n, NV_TREE).T @ f.ravel() + Jw.reshape(3 * n, NV_TREE).T @ torque.ravel()
    return SpanningTreeDynamics(H=H, C=C)


def _tree_dynamics(kc: KinematicsCache) -> SpanningTreeDynamics:
    """Tree dynamics of the state in kc, evaluated once and kept on the cache."""
    if kc.tree_dynamics is None:
        kc.tree_dynamics = spanning_tree_dynamics(kc)
    return kc.tree_dynamics


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


def closed_loop_dynamics(model: RobotModel, kc: KinematicsCache,
                         n_l: np.ndarray, n_r: np.ndarray,
                         mu: float = 0.8) -> ClosedLoopDynamics:
    """Reduce the tree EoM of the state in kc through G and build the
    ground-contact map.

    Contact Jacobians are taken at the wheel material point currently at the
    contact location (they include the wheel spin), expressed in the contact
    frame axes.
    """
    G = model.G
    dyn = _tree_dynamics(kc)
    H_y = G.T @ dyn.H @ G
    C_y = G.T @ dyn.C

    p_cl, p_cr = model.contact_points(kc, n_l, n_r)
    head = kc.R[0] @ np.array([1.0, 0.0, 0.0])
    F_l = contact_frame(n_l, head)
    F_r = contact_frame(n_r, head)

    J_l16 = kc.point_jacobian(WHEEL_L, p_cl)
    J_r16 = kc.point_jacobian(WHEEL_R, p_cr)
    J_xz16 = np.vstack([F_l[:, 0] @ J_l16, F_l[:, 2] @ J_l16,
                        F_r[:, 0] @ J_r16, F_r[:, 2] @ J_r16])
    J_y16 = np.vstack([F_l[:, 1] @ J_l16, F_r[:, 1] @ J_r16])
    J_xz = J_xz16 @ G

    v_l = kc.point_velocity(WHEEL_L, p_cl)
    v_r = kc.point_velocity(WHEEL_R, p_cr)
    C_F = friction_matrix(np.array([F_l[:, 1] @ v_l, F_r[:, 1] @ v_r]), mu)

    # J_gc in tree coordinates: (J^{x,z})^T + (J^y)^T C_F, F_C = (x_l, z_l, x_r, z_r)
    J_gc = J_xz16.T + J_y16.T @ C_F
    K = np.block([[H_y, -G.T @ J_gc], [J_xz, np.zeros((4, 4))]])

    # Constraint rows are e^T (v_center + omega_wheel x (-r n)) with a fixed
    # lever (-r n), so the drift term has no centripetal part over the lever;
    # the x-axis itself rotates with the projected heading, adding edot^T v.
    wc_l, wc_r = kc.wheel_centers()
    a_l = (kc.point_bias_acc(SHANK_L, wc_l)
           + cross3(kc.omega_dot_bias[WHEEL_L], p_cl - wc_l))
    a_r = (kc.point_bias_acc(SHANK_R, wc_r)
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

    contact = ContactModel(n_l=np.asarray(n_l, float), n_r=np.asarray(n_r, float),
                           frame_l=F_l, frame_r=F_r, C_F=C_F)
    return ClosedLoopDynamics(H_y=H_y, C_y=C_y, G=G.copy(), J_gc=J_gc,
                              J_xz=J_xz, J_y=J_y16 @ G, Jdot_xz_u=Jdot_xz_u, K=K,
                              contact=contact, p_cl=p_cl, p_cr=p_cr)


def mechanical_energy(kc: KinematicsCache) -> float:
    """Kinetic + gravitational potential energy of the current state."""
    dyn = _tree_dynamics(kc)
    u = kc.state.vel
    kinetic = 0.5 * u @ dyn.H @ u
    potential = GRAVITY * (kc.desc.masses @ kc.com_points[:, 2])
    return float(kinetic + potential)
