"""The per-joint forward recursion over the spanning tree, kept as the test
oracle of ``wbcsim.model.KinematicsCache``, which states the same recursion
as sums over each body's path from the base.  Also the cache's path sums
with one cross product per term, and the tree dynamics as einsums over the
bodies, as oracles of the batched cache and ``spanning_tree_dynamics``.

Each joint places its child body from the parent's pose and velocity, in
the order of ``desc.joints`` (every parent comes before its children).  A
joint about +-y turns by ``rot_y``; any other axis by ``exp_so3``.
"""

from __future__ import annotations

import numpy as np

from wbcsim.dynamics import GRAVITY
from wbcsim.model import (BASE, JOINT_CHILD, JOINT_LEVELS, JOINT_PARENT, JOINT_PATH, NQ_TREE,
                          NV_TREE, POINT_BODIES, POINT_MASK, ROTATION_MASK, WHEEL_L, WHEEL_R,
                          RobotDescription, SpanningTreeState)
from wbcsim.rotations import cross3, exp_so3

from helpers import rot_y

FIELDS = ("R", "o", "axis_w", "omega", "v_origin", "omega_dot_bias", "a_origin_bias")


def per_joint_kinematics(desc: RobotDescription, state: SpanningTreeState) -> dict:
    """World poses, joint axes and origins, velocities and bias
    accelerations (udot = 0) of every body, keyed as the cache's fields."""
    n = len(desc.bodies)
    R = np.empty((n, 3, 3))
    o = np.empty((n, 3))
    axis_w = np.empty((NQ_TREE, 3))
    R[BASE] = state.rot
    o[BASE] = state.pos
    for i, joint in enumerate(desc.joints):
        Rp, op = R[joint.parent], o[joint.parent]
        axis_w[i] = Rp @ joint.axis
        c = joint.child
        if joint.axis[0] == 0.0 and joint.axis[2] == 0.0:
            R[c] = Rp @ rot_y(joint.axis[1] * state.qj[i])
        else:
            R[c] = Rp @ exp_so3(np.asarray(joint.axis) * state.qj[i])
        o[c] = op + Rp @ joint.origin

    u = state.vel
    omega = np.empty((n, 3))
    v_origin = np.empty((n, 3))
    omega_dot_bias = np.empty((n, 3))
    a_origin_bias = np.empty((n, 3))
    omega[BASE] = u[3:6]
    v_origin[BASE] = u[0:3]
    omega_dot_bias[BASE] = 0.0
    a_origin_bias[BASE] = 0.0
    for i, joint in enumerate(desc.joints):
        p, c = joint.parent, joint.child
        r = o[c] - o[p]
        wp = omega[p]
        qd = u[6 + i]
        omega[c] = wp + axis_w[i] * qd
        v_origin[c] = v_origin[p] + cross3(wp, r)
        omega_dot_bias[c] = omega_dot_bias[p] + cross3(wp, axis_w[i]) * qd
        a_origin_bias[c] = (a_origin_bias[p] + cross3(omega_dot_bias[p], r)
                            + cross3(wp, cross3(wp, r)))
    return dict(R=R, o=o, axis_w=axis_w, omega=omega, v_origin=v_origin,
                omega_dot_bias=omega_dot_bias, a_origin_bias=a_origin_bias)


# every field of the cache's path-sum build and point pass
CACHE_FIELDS = FIELDS + ("points", "com_points", "point_jacobians", "angular_jacobians",
                         "point_velocities", "point_bias_acc")


def path_sum_kinematics(desc: RobotDescription, state: SpanningTreeState) -> dict:
    """The cache's path sums and point pass, one cross product per term:
    the point velocities as v_origin + w x r and the point bias
    accelerations as a_origin + wdot x r + w x (w x r), every Jacobian built
    by its own stack of axes and origins.  Keyed as the cache's fields."""
    q = state.qj[:, None, None]
    R_joint = np.eye(3) + np.sin(q) * desc.axis_hats + (1.0 - np.cos(q)) * desc.axis_hats_sq
    R = np.empty((len(desc.bodies), 3, 3))
    R[BASE] = state.rot
    for j, c, p in JOINT_LEVELS:
        R[c] = R[p] @ R_joint[j]
    r, axis_w = (R[JOINT_PARENT] @ desc.joint_vectors).transpose(2, 0, 1)
    o = state.pos + JOINT_PATH @ r

    u, qd = state.vel, state.vel[6:, None]
    omega = u[3:6] + JOINT_PATH @ (axis_w * qd)
    wp = omega[JOINT_PARENT]
    v_origin = u[0:3] + JOINT_PATH @ np.cross(wp, r)
    omega_dot_bias = JOINT_PATH @ (np.cross(wp, axis_w) * qd)
    a_origin_bias = JOINT_PATH @ (np.cross(omega_dot_bias[JOINT_PARENT], r)
                                  + np.cross(wp, np.cross(wp, r)))

    axes = np.vstack([np.eye(3), axis_w])
    axis_origins = np.vstack([np.tile(o[BASE], (3, 1)), o[JOINT_CHILD]])
    angular_jacobians = np.zeros((len(desc.bodies), 3, NV_TREE))
    angular_jacobians[:, :, 3:] = (axes * ROTATION_MASK[:, :, None]).transpose(0, 2, 1)

    com_points = o + np.einsum("bij,bj->bi", R, desc.coms)
    hips = o[BASE] + desc.hip_origins @ R[BASE].T
    points = np.vstack([com_points, o[[WHEEL_L, WHEEL_R]], hips])
    rp = points[:, None, :] - axis_origins[None]
    point_jacobians = np.zeros((len(points), 3, NV_TREE))
    point_jacobians[:, :, 0:3] = np.eye(3)
    point_jacobians[:, :, 3:] = (np.cross(axes[None], rp)
                                 * POINT_MASK[:, :, None]).transpose(0, 2, 1)
    b = POINT_BODIES
    r, w = points - o[b], omega[b]
    point_velocities = v_origin[b] + np.cross(w, r)
    point_bias_acc = (a_origin_bias[b] + np.cross(omega_dot_bias[b], r)
                      + np.cross(w, np.cross(w, r)))
    return dict(R=R, o=o, axis_w=axis_w, omega=omega, v_origin=v_origin,
                omega_dot_bias=omega_dot_bias, a_origin_bias=a_origin_bias, points=points, com_points=com_points,
                point_jacobians=point_jacobians, angular_jacobians=angular_jacobians,
                point_velocities=point_velocities, point_bias_acc=point_bias_acc)


def einsum_tree_dynamics(desc: RobotDescription, k: dict) -> tuple[np.ndarray, np.ndarray]:
    """H and C of the tree from the fields k of path_sum_kinematics, body
    sums written as einsums: H = sum m Jv^T Jv + Jw^T I_w Jw and
    C = sum Jv^T m (a - g) + Jw^T (I_w wdot + w x I_w w)."""
    n = len(desc.bodies)
    Jv, Jw = k["point_jacobians"][:n], k["angular_jacobians"]
    R = k["R"]
    I_w = R @ desc.inertias @ R.transpose(0, 2, 1)
    IJw = I_w @ Jw
    mJv = desc.masses[:, None, None] * Jv
    H = np.einsum("bij,bik->jk", mJv, Jv) + np.einsum("bij,bik->jk", Jw, IJw)
    H = 0.5 * (H + H.T)
    w = k["omega"]
    Iw = np.einsum("bij,bj->bi", I_w, w)
    f = desc.masses[:, None] * (k["point_bias_acc"][:n] - np.array([0.0, 0.0, -GRAVITY]))
    torque = np.einsum("bij,bj->bi", I_w, k["omega_dot_bias"]) + np.cross(w, Iw)
    C = Jv.reshape(3 * n, NV_TREE).T @ f.ravel() + Jw.reshape(3 * n, NV_TREE).T @ torque.ravel()
    return H, C
