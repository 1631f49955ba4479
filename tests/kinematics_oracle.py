"""The per-joint forward recursion over the spanning tree, kept as the test
oracle of ``wbcsim.model.KinematicsCache``, which states the same recursion
as sums over each body's path from the base.

Each joint places its child body from the parent's pose and velocity, in
the order of ``desc.joints`` (every parent comes before its children).  A
joint about +-y turns by ``rot_y``; any other axis by ``exp_so3``.
"""

from __future__ import annotations

import numpy as np

from wbcsim.model import BASE, NQ_TREE, RobotDescription, SpanningTreeState
from wbcsim.rotations import cross3, exp_so3, rot_y

FIELDS = ("R", "o", "axis_w", "joint_origin_w", "omega", "v_origin",
          "omega_dot_bias", "a_origin_bias")


def per_joint_kinematics(desc: RobotDescription, state: SpanningTreeState) -> dict:
    """World poses, joint axes and origins, velocities and bias
    accelerations (udot = 0) of every body, keyed as the cache's fields."""
    n = len(desc.bodies)
    R = np.empty((n, 3, 3))
    o = np.empty((n, 3))
    axis_w = np.empty((NQ_TREE, 3))
    joint_origin_w = np.empty((NQ_TREE, 3))
    R[BASE] = state.rot
    o[BASE] = state.pos
    for i, joint in enumerate(desc.joints):
        Rp, op = R[joint.parent], o[joint.parent]
        joint_origin_w[i] = op + Rp @ joint.origin
        axis_w[i] = Rp @ joint.axis
        c = joint.child
        if joint.axis[0] == 0.0 and joint.axis[2] == 0.0:
            R[c] = Rp @ rot_y(joint.axis[1] * state.qj[i])
        else:
            R[c] = Rp @ exp_so3(np.asarray(joint.axis) * state.qj[i])
        o[c] = joint_origin_w[i]

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
    return dict(R=R, o=o, axis_w=axis_w, joint_origin_w=joint_origin_w,
                omega=omega, v_origin=v_origin, omega_dot_bias=omega_dot_bias,
                a_origin_bias=a_origin_bias)
