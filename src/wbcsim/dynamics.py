"""Spanning-tree and closed-loop equations of motion, ground contact model.

The tree EoM is  H(q) udot + C(q, u) = S^T tau_a + tau_gc  with 16
velocity coordinates; reduction through the loop-closure Jacobian G gives
the 12-dimensional closed-loop form H_y = G^T H G, C_y = G^T C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from .rotations import cross3, cross_rows

from .model import (
    BASE,
    N_BODIES,
    NV_MIN,
    NV_TREE,
    WHEEL_L,
    WHEEL_POINTS,
    WHEEL_R,
    KinematicsCache,
    RobotModel,
    TREE_ROWS,
)

GRAVITY = 9.81
GRAVITY_ACC = np.array([0.0, 0.0, -GRAVITY])
# lateral slip speed (m/s) at which the friction coefficient saturates at mu
FRICTION_V_REF = 0.05
# accepted deviation of a ground normal's length from 1 (the absolute plus
# relative tolerance of np.isclose(norm, 1, atol=1e-6), without its overhead)
UNIT_TOL = 1e-6 + 1e-5
SIDES = ("left", "right")


@dataclass
class SpanningTreeDynamics:
    H: np.ndarray                # 16x16 generalized inertia
    C: np.ndarray                # 16 bias (Coriolis + centripetal + gravity)


@dataclass
class ClosedLoopState:
    """The part of the closed-loop dynamics that depends on the state only,
    shared by every normal set."""

    H_y: np.ndarray              # 12x12
    C_y: np.ndarray              # 12
    # (2, 6, 18) per wheel (left, right), the wheel center's motion (rows
    # 0-2) and the wheel's rotation (rows 3-5): their Jacobians (columns
    # 0-15), velocities (16) and bias accelerations with udot = 0 (17)
    wheels: np.ndarray
    wheel_vel: list              # per wheel, its center velocity and angular velocity, as floats
    head: list                   # base x axis, as floats
    head_dot: list               # its rate, omega_base x head, as floats
    K: np.ndarray                # 16x16 [H_y, 0; 0, 0], the template of every normal set's K


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
    n: np.ndarray                # (2, 3) ground normals, left then right, unit and upward
    f: np.ndarray                # (2,) lateral friction F_y = f F_z of each wheel
    p_cl: np.ndarray
    p_cr: np.ndarray


def spanning_tree_dynamics(kc: KinematicsCache) -> SpanningTreeDynamics:
    """H via composite inertia assembly, C via Newton-Euler at zero acceleration.

    All 11 bodies at once: the stacked (66, 16) rows [J_v; J_w] of the
    cache's CoM and angular Jacobians meet [m J_v, f; I_w J_w, torque] in
    one product, which gives H and C together.
    """
    desc = kc.desc
    J = kc.jacobians[TREE_ROWS]
    Jv, Jw = J[:N_BODIES], J[N_BODIES:]
    I_w = kc.R @ desc.inertias @ kc.R.transpose(0, 2, 1)
    Iw = I_w @ kc.rates.transpose(0, 2, 1)      # (11, 3, 2): I_w [w, wdot] of every body
    rhs = np.empty((2 * N_BODIES, 3, NV_TREE + 1))
    np.multiply(desc.masses[:, None, None], Jv, out=rhs[:N_BODIES, :, :NV_TREE])
    np.matmul(I_w, Jw, out=rhs[N_BODIES:, :, :NV_TREE])
    rhs[:N_BODIES, :, NV_TREE] = desc.masses[:, None] * (kc.com_bias_acc - GRAVITY_ACC)
    rhs[N_BODIES:, :, NV_TREE] = Iw[:, :, 1] + cross_rows(kc.omega, Iw[:, :, 0])
    HC = J.reshape(6 * N_BODIES, NV_TREE).T @ rhs.reshape(6 * N_BODIES, NV_TREE + 1)
    H = 0.5 * (HC[:, :NV_TREE] + HC[:, :NV_TREE].T)   # exactly symmetric, not only up to roundoff
    return SpanningTreeDynamics(H=H, C=HC[:, NV_TREE])


def _tree_dynamics(kc: KinematicsCache) -> SpanningTreeDynamics:
    """Tree dynamics of the state in kc, evaluated once and kept on the cache."""
    if kc.tree_dynamics is None:
        kc.tree_dynamics = spanning_tree_dynamics(kc)
    return kc.tree_dynamics


def _closed_loop_state(model: RobotModel, kc: KinematicsCache) -> ClosedLoopState:
    """Per-state part of the closed-loop dynamics of kc, built once and kept on the cache."""
    if kc.closed_loop_state is None:
        G = model.G
        dyn = _tree_dynamics(kc)
        # the rows WHEEL_L and WHEEL_R, as a slice
        w = slice(WHEEL_L, None, WHEEL_R - WHEEL_L)
        wheels = np.empty((2, 6, NV_TREE + 2))
        wheels[:, :3, :NV_TREE] = kc.point_jacobians[WHEEL_POINTS]
        wheels[:, 3:, :NV_TREE] = kc.angular_jacobians[w]
        wheels[:, :3, NV_TREE] = kc.point_velocities[WHEEL_POINTS]
        wheels[:, :3, NV_TREE + 1] = kc.point_bias_acc[WHEEL_POINTS]
        wheels[:, 3:, NV_TREE:] = kc.rates[w].transpose(0, 2, 1)
        head = kc.R[BASE][:, 0]
        H_y = G.T @ dyn.H @ G
        K = np.zeros((NV_MIN + 4, NV_MIN + 4))
        K[:NV_MIN, :NV_MIN] = H_y
        kc.closed_loop_state = ClosedLoopState(
            H_y=H_y, C_y=G.T @ dyn.C, wheels=wheels,
            wheel_vel=wheels[:, :, NV_TREE].tolist(), head=head.tolist(),
            head_dot=cross3(kc.omega[BASE], head).tolist(), K=K)
    return kc.closed_loop_state


def closed_loop_dynamics(model: RobotModel, kc: KinematicsCache,
                         n_l: np.ndarray, n_r: np.ndarray,
                         mu: float = 0.8) -> ClosedLoopDynamics:
    """Reduce the tree EoM of the state in kc through G and build the
    ground-contact map at the given normals, both wheels at once; the task
    pass, the HQP and the physics step all read this one record.

    The contact rows are taken at the wheel material point currently at the
    contact, expressed in the contact frame axes (x the heading in the
    ground plane, z the normal, y = z x x).  That point is the wheel center
    plus the lever l = -r n, so its velocity is v_center + omega_wheel x l
    and the row of an axis e is [e | l x e] times the stacked wheel-center
    and wheel angular Jacobians (Featherstone, Rigid Body Dynamics
    Algorithms, 2008, ch. 2): [x | -r y], [y | r x] and [n | 0].
    """
    G = model.G
    st = _closed_loop_state(model, kc)
    n = np.array([n_l, n_r], dtype=float)
    r = model.desc.wheel_radius
    p = kc.points[WHEEL_POINTS] - r * n

    # Per wheel on Python floats (far cheaper than array calls on 3-vectors):
    # the normal, checked to be unit and upward, x the heading projected into
    # the ground plane, t / |t|, y = n x x, the lateral friction F_y = f F_z
    # with f = -mu clamp(v_y / FRICTION_V_REF, -1, 1), and the rows x, y, n
    # and n + f y of E.  The last one is the z-force column of J_gc, F_C =
    # (x_l, z_l, x_r, z_r).
    hx, hy, hz = st.head
    dx, dy, dz = st.head_dot
    E, f, drift = [], [], []
    for side, (a, b, c), (v0, v1, v2, w0, w1, w2) in zip(SIDES, n.tolist(), st.wheel_vel):
        if not abs(math.sqrt(a * a + b * b + c * c) - 1.0) <= UNIT_TOL:
            raise ValueError(f"{side} ground normal is not unit length")
        if c <= 0.0:
            raise ValueError(f"{side} ground normal must point into the upper hemisphere")
        s = a * hx + b * hy + c * hz
        tx, ty, tz = hx - s * a, hy - s * b, hz - s * c
        nt = math.sqrt(tx * tx + ty * ty + tz * tz)
        if nt < 1e-8:
            raise ValueError(f"{side} ground normal is parallel to the heading")
        x0, x1, x2 = tx / nt, ty / nt, tz / nt
        y0, y1, y2 = b * x2 - c * x1, c * x0 - a * x2, a * x1 - b * x0
        v_y = y0 * v0 + y1 * v1 + y2 * v2 + r * (x0 * w0 + x1 * w1 + x2 * w2)
        fi = -mu * min(max(v_y / FRICTION_V_REF, -1.0), 1.0)
        E += (x0, x1, x2, -r * y0, -r * y1, -r * y2,
              y0, y1, y2, r * x0, r * x1, r * x2,
              a, b, c, 0.0, 0.0, 0.0,
              a + fi * y0, b + fi * y1, c + fi * y2, fi * r * x0, fi * r * x1, fi * r * x2)
        f.append(fi)
        # the x axis turns at ((head_dot . y) / |t|) y, adding that times v_y
        # to the x row's drift
        drift.append((dx * y0 + dy * y1 + dz * y2) / nt * v_y)
    E = np.array(E).reshape(2, 4, 6)
    # per wheel and row of E: the contact row, velocity and bias acceleration
    out = E @ st.wheels
    rows_y = out[:, :3, :NV_TREE] @ G
    J_gc = out[:, ::3, :NV_TREE].reshape(4, NV_TREE).T
    J_xz = rows_y[:, ::2].reshape(4, NV_MIN)
    K = st.K.copy()
    K[:NV_MIN, NV_MIN:] = -G.T @ J_gc
    K[NV_MIN:, :NV_MIN] = J_xz
    # The lever (-r n) is fixed, so the drift has no centripetal part over it.
    (acc_xl, _, acc_zl), (acc_xr, _, acc_zr) = out[:, :3, NV_TREE + 1].tolist()
    Jdot_xz_u = np.array((acc_xl + drift[0], acc_zl, acc_xr + drift[1], acc_zr))
    return ClosedLoopDynamics(H_y=st.H_y, C_y=st.C_y, G=G, J_gc=J_gc,
                              J_xz=J_xz, J_y=rows_y[:, 1], Jdot_xz_u=Jdot_xz_u, K=K,
                              n=n, f=np.array(f), p_cl=p[0], p_cr=p[1])


def mechanical_energy(kc: KinematicsCache) -> float:
    """Kinetic + gravitational potential energy of the current state."""
    dyn = _tree_dynamics(kc)
    u = kc.state.vel
    kinetic = 0.5 * u @ dyn.H @ u
    potential = GRAVITY * (kc.desc.masses @ kc.com_points[:, 2])
    return float(kinetic + potential)
