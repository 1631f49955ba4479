"""Kinematic and inertial model of the 6-DoF wheeled bipedal robot.

The robot is a floating base with two legs. Each leg is a parallelogram
four-bar: hip joint (q1/q6) to the thigh, knee joint (q2/q7) to the shank,
a passive parallel link (q3/q8) on the shank, a drive rocker (q5/q10) on
the thigh, and the wheel (q4/q9) at the shank tip.  The four-bar imposes

    q5 = q2 = -q3    and    q10 = q7 = -q8,

so the independent joint set is (q1, q5, q4, q6, q10, q9).  The spanning
tree has 16 velocity coordinates u = (v_base, omega_base, qdot_1..10) in
the inertia frame; the closed loop has 12, u_y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources

import numpy as np

from .rotations import cross_rows, euler_zyx, hat
from .scenario import read_yaml

NQ_TREE = 10
NV_TREE = 16
NQ_MIN = 6
NV_MIN = 12

# Body indices.
BASE, THIGH_L, SHANK_L, LINK_L, ROCKER_L, WHEEL_L = 0, 1, 2, 3, 4, 5
THIGH_R, SHANK_R, LINK_R, ROCKER_R, WHEEL_R = 6, 7, 8, 9, 10

BODY_NAMES = [
    "base",
    "thigh_l", "shank_l", "link_l", "rocker_l", "wheel_l",
    "thigh_r", "shank_r", "link_r", "rocker_r", "wheel_r",
]
N_BODIES = len(BODY_NAMES)

# Joint i corresponds to tree coordinate q_{i+1}; child body of each joint.
JOINT_CHILD = np.array([THIGH_L, SHANK_L, LINK_L, WHEEL_L, ROCKER_L,
                        THIGH_R, SHANK_R, LINK_R, WHEEL_R, ROCKER_R])
JOINT_PARENT = np.array([BASE, THIGH_L, SHANK_L, SHANK_L, THIGH_L,
                         BASE, THIGH_R, SHANK_R, SHANK_R, THIGH_R])

# Independent joints (q1, q5, q4, q6, q10, q9) as 0-based tree indices.
INDEP_JOINTS = [0, 4, 3, 5, 9, 8]
# Actuated tree joints in torque order (hip_l, knee_l, wheel_l, hip_r, knee_r,
# wheel_r): the independent joints, so the actuated rates are u_y[6:].
ACTUATED_JOINTS = INDEP_JOINTS
# Hip joints (q1, q6), left and right.
HIP_JOINTS = [0, 5]

EZ = np.array([0.0, 0.0, 1.0])


def _joint_expansion() -> np.ndarray:
    """10x6 map from independent joint values to the full tree joint vector."""
    E = np.zeros((NQ_TREE, NQ_MIN))
    E[0, 0] = 1.0                       # q1
    E[1, 1] = 1.0                       # q2 = q5
    E[2, 1] = -1.0                      # q3 = -q5
    E[3, 2] = 1.0                       # q4
    E[4, 1] = 1.0                       # q5
    E[5, 3] = 1.0                       # q6
    E[6, 4] = 1.0                       # q7 = q10
    E[7, 4] = -1.0                      # q8 = -q10
    E[8, 5] = 1.0                       # q9
    E[9, 4] = 1.0                       # q10
    return E


JOINT_EXPANSION = _joint_expansion()


def _rotation_mask() -> np.ndarray:
    """11x13 map: True where a body turns with the base rotation axis (first
    three columns) or with a tree joint (the remaining ten)."""
    M = np.zeros((N_BODIES, 3 + NQ_TREE), dtype=bool)
    M[:, :3] = True
    for i, (p, c) in enumerate(zip(JOINT_PARENT, JOINT_CHILD)):
        M[c] = M[p]
        M[c, 3 + i] = True
    return M


ROTATION_MASK = _rotation_mask()
# (11, 10): 1 where joint j lies on body b's path from the base
JOINT_PATH = ROTATION_MASK[:, 3:].astype(float)
# (joints, children, parents) at each depth of the tree, root side first
_DEPTH = ROTATION_MASK[JOINT_CHILD, 3:].sum(axis=1)
JOINT_LEVELS = [(j, JOINT_CHILD[j], JOINT_PARENT[j])
                for j in (np.flatnonzero(_DEPTH == d) for d in range(1, _DEPTH.max() + 1))]
# the points of KinematicsCache's point pass and the body each is fixed to:
# the 11 body CoMs, the two wheel centres (on the wheels' own axes, so the
# wheel spin does not move them) and the two hips on the base, left first
POINT_BODIES = np.r_[np.arange(N_BODIES), WHEEL_L, WHEEL_R, BASE, BASE]
POINT_MASK = ROTATION_MASK[POINT_BODIES]
WHEEL_POINTS, HIP_POINTS = slice(11, 13), slice(13, 15)
# the points the task rows read, the wheel centres then the hips; their
# Jacobians are followed by the base's angular-velocity rows, [0 | I | 0],
# and the task rows combine all five
TASK_POINTS, TASK_JACOBIANS = slice(11, 15), slice(11, 16)
AXIS_BODIES = np.r_[BASE, BASE, BASE, JOINT_CHILD]
# the (26, 3, 16) Jacobians of the point pass, linear ones of the points then
# angular ones of the bodies: the rotation axes that turn each row, the
# constant columns, and the rows of the body CoMs and rotations
JACOBIAN_MASK = np.vstack([POINT_MASK, ROTATION_MASK])[:, None].astype(float)
JACOBIAN_TEMPLATE = np.zeros((len(JACOBIAN_MASK), 3, NV_TREE))
JACOBIAN_TEMPLATE[:len(POINT_BODIES), :, :3] = np.eye(3)
TREE_ROWS = np.r_[:N_BODIES, len(POINT_BODIES):len(JACOBIAN_MASK)]
EYE3 = np.eye(3)


def loop_closure_matrix() -> np.ndarray:
    """Constant 16x12 Jacobian G of the loop closure map (base block identity)."""
    G = np.zeros((NV_TREE, NV_MIN))
    G[:6, :6] = np.eye(6)
    G[6:, 6:] = JOINT_EXPANSION
    return G


def selection_matrix() -> np.ndarray:
    """6x16 selection S mapping actuated torques onto tree coordinates (S^T tau)."""
    S = np.zeros((6, NV_TREE))
    for row, j in enumerate(ACTUATED_JOINTS):
        S[row, 6 + j] = 1.0
    return S


@dataclass
class Body:
    name: str
    mass: float
    inertia: np.ndarray          # 3x3 in body frame, about the CoM
    com: np.ndarray              # CoM offset in body frame


@dataclass
class Joint:
    name: str
    parent: int
    child: int
    axis: np.ndarray             # unit axis in parent frame
    origin: np.ndarray           # joint origin in parent frame


@dataclass
class RobotDescription:
    """Validated numeric description of the fixed robot topology."""

    bodies: list[Body]
    joints: list[Joint]
    wheel_radius: float
    torque_limit: float

    def __post_init__(self):
        if len(self.bodies) != 11:
            raise ValueError(f"expected 11 bodies, got {len(self.bodies)}")
        if len(self.joints) != NQ_TREE:
            raise ValueError(f"expected {NQ_TREE} revolute joints, got {len(self.joints)}")
        for b in self.bodies:
            if b.mass <= 0.0:
                raise ValueError(f"body {b.name} has non-positive mass")
            I = np.asarray(b.inertia, dtype=float)
            if not np.allclose(I, I.T, atol=1e-12):
                raise ValueError(f"body {b.name} inertia not symmetric")
            # Sylvester's criterion: every leading principal minor positive
            (xx, xy, xz), (_, yy, yz), (_, _, zz) = I.tolist()
            det = xx * (yy * zz - yz * yz) - xy * (xy * zz - yz * xz) + xz * (xy * yz - yy * xz)
            if not (xx > 0.0 and xx * yy - xy * xy > 0.0 and det > 0.0):
                raise ValueError(f"body {b.name} inertia not positive definite")
        for i, j in enumerate(self.joints):
            if j.parent != JOINT_PARENT[i] or j.child != JOINT_CHILD[i]:
                raise ValueError(f"joint {j.name} does not match the fixed topology")
            n = np.linalg.norm(j.axis)
            if not np.isclose(n, 1.0, atol=1e-9):
                raise ValueError(f"joint {j.name} axis is not unit length")
        if self.wheel_radius <= 0.0:
            raise ValueError("wheel radius must be positive")
        if self.torque_limit <= 0.0:
            raise ValueError("torque limit must be positive")
        # stacked per-body parameters for the vectorized kinematics
        self.masses = np.array([b.mass for b in self.bodies])
        self.coms = np.array([b.com for b in self.bodies], dtype=float)
        self.inertias = np.array([b.inertia for b in self.bodies], dtype=float)
        self.total_mass = float(self.masses.sum())
        # per-joint (3, 2) blocks [origin, axis] in the parent frame, and the
        # hat matrix K of the unit axis with K^2, for Rodrigues' formula
        self.joint_vectors = np.array([np.column_stack([j.origin, j.axis])
                                       for j in self.joints], dtype=float)
        self.axis_hats = hat([j.axis / np.linalg.norm(j.axis) for j in self.joints])
        self.axis_hats_sq = self.axis_hats @ self.axis_hats
        # (2, 3) hip joint origins in the base frame, left and right
        self.hip_origins = self.joint_vectors[HIP_JOINTS, :, 0]
        # (15, 3, 1) offset of each POINT_BODIES point in its body's frame
        self.point_offsets = np.concatenate([self.coms, np.zeros((2, 3)), self.hip_origins])[:, :, None]

    @classmethod
    def from_dict(cls, cfg: dict) -> "RobotDescription":
        body_index = {name: i for i, name in enumerate(BODY_NAMES)}
        bodies = []
        for name in BODY_NAMES:
            try:
                bc = cfg["bodies"][name]
            except KeyError as exc:
                raise ValueError(f"missing body entry '{name}'") from exc
            inertia = np.asarray(bc["inertia"], dtype=float)
            if inertia.shape == (3,):
                inertia = np.diag(inertia)
            bodies.append(Body(
                name=name,
                mass=float(bc["mass"]),
                inertia=inertia,
                com=np.asarray(bc.get("com", [0.0, 0.0, 0.0]), dtype=float),
            ))
        joints = []
        for i in range(NQ_TREE):
            name = f"q{i + 1}"
            try:
                jc = cfg["joints"][name]
            except KeyError as exc:
                raise ValueError(f"missing joint entry '{name}'") from exc
            joints.append(Joint(
                name=name,
                parent=body_index[jc["parent"]],
                child=body_index[jc["child"]],
                axis=np.asarray(jc.get("axis", [0.0, 1.0, 0.0]), dtype=float),
                origin=np.asarray(jc["origin"], dtype=float),
            ))
        return cls(
            bodies=bodies,
            joints=joints,
            wheel_radius=float(cfg["wheel_radius"]),
            torque_limit=float(cfg["torque_limit"]),
        )

    @classmethod
    def default(cls) -> "RobotDescription":
        text = resources.files("wbcsim.data").joinpath("robot_default.yaml").read_text()
        return cls.from_dict(read_yaml(text, "cannot parse robot_default.yaml"))


@dataclass
class SpanningTreeState:
    """Full tree configuration: base pose, 10 joint angles, 16 velocities."""

    pos: np.ndarray
    rot: np.ndarray
    qj: np.ndarray               # (10,)
    vel: np.ndarray = field(default_factory=lambda: np.zeros(NV_TREE))


@dataclass
class MinimalState:
    """Independent closed-loop coordinates y and velocities u_y."""

    pos: np.ndarray
    rot: np.ndarray
    qj: np.ndarray               # (6,): q1, q5, q4, q6, q10, q9
    vel: np.ndarray = field(default_factory=lambda: np.zeros(NV_MIN))


# the six task rows in priority order, and the row of each pose task value
# Lambda = (phi, h, alpha, beta, gamma) followed by the balance row
TASK_NAMES = ("height", "pitch", "balance", "roll", "split", "yaw")
TASK_ROWS = np.array([4, 0, 3, 1, 5, 2])


@dataclass
class TaskJacobians:
    """One cycle's task-space pass: the rows (1x12) mapping u_y to task
    rates, in TASK_NAMES order, their Jdot*u_y bias terms, and the task
    values the pose PD law and the balance LQR track."""

    J: np.ndarray                # 6x12
    Jdot_u: np.ndarray           # (6,)
    Lambda: np.ndarray           # (phi, h, alpha, beta, gamma)
    Lambda_dot: np.ndarray       # (5,) its rates, rows of J @ u_y
    Lambda_com: np.ndarray       # (r, rdot, s, sdot) of the CoM along x_N
    r_z: float                   # CoM height over the contact midpoint


class KinematicsCache:
    """World poses, velocities and bias accelerations of one closed-loop state
    y, kept with the tree state it expands to.

    The forward recursion over the tree (Featherstone, Rigid Body Dynamics
    Algorithms, 2008, ch. 5) is stated as sums over each body's path from
    the base: a body's origin, angular velocity, origin velocity and bias
    accelerations are the base value plus JOINT_PATH times one term per
    joint, and that term reads only the joint's parent body.  Only the
    rotations are chained, one depth level of the tree at a time.

    One point pass then gives the positions, linear-velocity Jacobians,
    velocities and bias accelerations (udot = 0) of every point the cycle
    reads (POINT_BODIES): the first 11 are the body CoMs.  Its Jacobians
    are rows of one (26, 3, 16) array, which ends with the angular-velocity
    Jacobians of the 11 bodies.
    """

    def __init__(self, desc: RobotDescription, y: MinimalState,
                 state: SpanningTreeState):
        self.desc = desc
        self.y = y
        self.state = state
        # tree dynamics and the per-state part of the closed-loop dynamics
        # of this state, filled on first use by wbcsim.dynamics
        self.tree_dynamics = None
        self.closed_loop_state = None

        q = state.qj[:, None, None]
        R_joint = EYE3 + np.sin(q) * desc.axis_hats + (1.0 - np.cos(q)) * desc.axis_hats_sq
        R = self.R = np.empty((N_BODIES, 3, 3))
        R[BASE] = state.rot
        for j, c, p in JOINT_LEVELS:
            R[c] = R[p] @ R_joint[j]
        # per joint the columns [r, a]: the parent-to-child origin offset and
        # the joint axis, in the world frame
        ra = R[JOINT_PARENT] @ desc.joint_vectors
        r, self.axis_w = ra[:, :, 0], ra[:, :, 1]
        self.o = state.pos + JOINT_PATH @ r
        # a point on each rotation axis: the base origin for the base's x, y
        # and z, each joint's origin for the joints
        self._axis_origins = self.o[AXIS_BODIES]

        # every body's [omega, omega_dot_bias]; the cross products
        # w_p x [r, a], then [w_p, wdot_p] x [w_p x r, r]
        u, qd = state.vel, state.vel[6:, None]
        rates = self.rates = np.empty((N_BODIES, 2, 3))
        self.omega, self.omega_dot_bias = rates[:, 0], rates[:, 1]
        np.add(u[3:6], JOINT_PATH @ (self.axis_w * qd), out=self.omega)
        w_ra = hat(self.omega[JOINT_PARENT]) @ ra
        self.v_origin = u[0:3] + JOINT_PATH @ w_ra[:, :, 0]
        np.matmul(JOINT_PATH, w_ra[:, :, 1] * qd, out=self.omega_dot_bias)
        w_ra[:, :, 1] = r
        a = cross_rows(rates[JOINT_PARENT], w_ra.transpose(0, 2, 1))
        self.a_origin_bias = JOINT_PATH @ (a[:, 0] + a[:, 1])

        # the point pass: r is each point's offset from its body's origin
        b = POINT_BODIES
        r = (R[b] @ desc.point_offsets)[:, :, 0]
        self.points = self.o[b] + r
        self.com_points = self.points[:N_BODIES]
        self._axes = np.concatenate((EYE3, self.axis_w))
        J = self.jacobians = self._point_jacobians()
        self.point_jacobians = J[:len(POINT_BODIES)]
        self.angular_jacobians = J[len(POINT_BODIES):]
        self.point_velocities = self.point_jacobians @ u
        # [w, wdot] x [w x r, r], where w x r is the point's velocity less its body origin's
        wr_r = np.empty((len(b), 2, 3))
        np.subtract(self.point_velocities, self.v_origin[b], out=wr_r[:, 0])
        wr_r[:, 1] = r
        a = cross_rows(rates[b], wr_r)
        self.point_bias_acc = self.a_origin_bias[b] + a[:, 0] + a[:, 1]

    def wheel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        return self.o[WHEEL_L].copy(), self.o[WHEEL_R].copy()

    def _point_jacobians(self) -> np.ndarray:
        """(26, 3, 16) linear-velocity Jacobians of the 15 points, then the
        angular-velocity Jacobians of the 11 bodies: each point or body is
        turned by the rotation axes its mask row selects."""
        r = self.points[:, None] - self._axis_origins
        J = JACOBIAN_TEMPLATE.copy()
        # axis x r as hat(axis) @ r, each axis for all points in one product
        J[:len(POINT_BODIES), :, 3:] = (hat(self._axes) @ r.transpose(1, 2, 0)).transpose(2, 1, 0)
        J[len(POINT_BODIES):, :, 3:] = self._axes.T
        J[:, :, 3:] *= JACOBIAN_MASK
        return J

    @property
    def com_bias_acc(self) -> np.ndarray:
        """(11, 3) CoM accelerations for the current u with udot = 0."""
        return self.point_bias_acc[:N_BODIES]

    @cached_property
    def com(self) -> tuple[np.ndarray, float]:
        """Whole-body CoM and total mass."""
        M = self.desc.total_mass
        return self.desc.masses @ self.com_points / M, M

    @cached_property
    def com_jacobian(self) -> np.ndarray:
        """(3, 16) linear-velocity Jacobian of the whole-body CoM."""
        Jv = self.jacobians[:N_BODIES].reshape(N_BODIES, -1)
        return (self.desc.masses @ Jv).reshape(3, NV_TREE) / self.desc.total_mass

    @cached_property
    def heading_axis(self):
        """Heading axis x_N = P head / |P head| (P drops z, head = R e_x), its
        norm |P head|, and its first two time derivatives along the current
        velocity with udot = 0 (head rotates with the base: head' = w x head).
        """
        hx, hy, hz = self.R[BASE][:, 0].tolist()
        nh = math.sqrt(hx * hx + hy * hy)
        if nh < 1e-8:
            raise ValueError("heading is vertical; frame N undefined")
        n0, n1 = hx / nh, hy / nh
        # on Python floats, far cheaper than array calls on 3-vectors:
        # a = h1 = w x head, and b the ground-plane part of h2 = w x h1
        w0, w1, w2 = self.omega[BASE].tolist()
        a0, a1, a2 = w1 * hz - w2 * hy, w2 * hx - w0 * hz, w0 * hy - w1 * hx
        b0, b1 = w1 * a2 - w2 * a1, w2 * a0 - w0 * a2
        nd = n0 * a0 + n1 * a1
        d0, d1 = (a0 - nd * n0) / nh, (a1 - nd * n1) / nh
        c = n0 * b0 + n1 * b1 + d0 * a0 + d1 * a1
        dd0 = (b0 - c * n0 - 2.0 * nd * d0) / nh
        dd1 = (b1 - c * n1 - 2.0 * nd * d1) / nh
        return (np.array([n0, n1, 0.0]), nh, np.array([d0, d1, 0.0]),
                np.array([dd0, dd1, 0.0]))


class RobotModel:
    """Loop-closure aware kinematics built on a RobotDescription."""

    def __init__(self, desc: RobotDescription | None = None):
        self.desc = desc if desc is not None else RobotDescription.default()
        self.G = loop_closure_matrix()
        # (16, 6) the torques' share of the contact KKT rows: [G^T S^T; 0]
        self.B = np.vstack([self.G.T @ selection_matrix().T, np.zeros((4, 6))])

    # -- coordinate maps ---------------------------------------------------

    def expand_coordinates(self, y: MinimalState) -> SpanningTreeState:
        """q = gamma(y): base pose copied, joints through the parallelogram map."""
        return SpanningTreeState(
            pos=y.pos.copy(),
            rot=y.rot.copy(),
            qj=JOINT_EXPANSION @ y.qj,
            vel=self.G @ y.vel,
        )

    def kinematics(self, y: MinimalState) -> KinematicsCache:
        return KinematicsCache(self.desc, y, self.expand_coordinates(y))

    # -- task space --------------------------------------------------------

    def task_jacobians(self, kc: KinematicsCache, p_cl: np.ndarray,
                       p_cr: np.ndarray) -> TaskJacobians:
        """The cycle's task-space pass at the contact points of the
        controller's closed-loop dynamics: the analytic 6x12 task rows (h,
        beta, r_com_x, alpha, phi, gamma), their Jdot*u_y terms and the task
        values.

        Jdot*u_y is each task's second time derivative along the current
        velocity with udot = 0.  It is assembled from the Jacobians and bias
        accelerations of the cache's point pass (body CoMs, wheel centers and
        hips), the first two rates of the rotating heading axis x_N, and for the Euler
        rows the rate of the Euler-rate map: with E(theta) theta_dot = w,
        theta_ddot = -E^-1 Edot theta_dot at constant w.
        """
        x_n, nh, x_d, x_dd = kc.heading_axis
        # On Python floats, far cheaper than array calls on 3-vectors.  x_N,
        # x_d and x_dd lie in the ground plane: their z is 0.
        (xn0, xn1, _), (xd0, xd1, _), (xdd0, xdd1, _) = x_n.tolist(), x_d.tolist(), x_dd.tolist()
        hx, hy, hz = kc.R[BASE][:, 0].tolist()
        w0, w1, w2 = kc.omega[BASE].tolist()

        # Euler rates theta_dot = E^-1 w; E's columns are head (= Rz Ry e_x),
        # c1 = Rz e_y = ez x x_N and ez.  With head = |P head| x_N + head_z ez,
        # the rows of E^-1 are x_N / |P head|, c1 and ez - head_z x_N / |P head|.
        # Edot theta_dot = roll_dot (yaw_dot ez + pitch_dot c1) x head
        # + pitch_dot yaw_dot ez x c1, where ez x c1 = -x_N: v below.
        k = hz / nh
        pd, rd = xn0 * w1 - xn1 * w0, (xn0 * w0 + xn1 * w1) / nh
        yd = w2 - k * (xn0 * w0 + xn1 * w1)
        g0, g1 = -pd * xn1, pd * xn0             # yaw_dot ez + pitch_dot c1 = (g0, g1, yd)
        v0 = rd * (g1 * hz - yd * hy) - pd * yd * xn0
        v1 = rd * (yd * hx - g0 * hz) - pd * yd * xn1
        v2 = rd * (g0 * hy - g1 * hx)
        v_xn = xn0 * v0 + xn1 * v1

        # x_N turns in the ground plane, along c1: d(x_N)/dw = c1 (head x c1)^T
        # / |P head|, and head x c1 / |P head| = (dx0, dx1, 1), the yaw row of
        # E^-1.  So a row of p . x_N gains (p . c1) times it.
        dx0, dx1 = -k * xn0, -k * xn1

        def along(p, p_d, p_dd):
            """p . x_N, its first two rates, and p . c1."""
            (p0, p1, _), (q0, q1, _), (s0, s1, _) = p, p_d, p_dd
            return (p0 * xn0 + p1 * xn1, q0 * xn0 + q1 * xn1 + p0 * xd0 + p1 * xd1,
                    s0 * xn0 + s1 * xn1 + 2.0 * (q0 * xd0 + q1 * xd1) + p0 * xdd0 + p1 * xdd1,
                    p1 * xn0 - p0 * xn1)

        # both legs' pendulum angles atan2(a, b), a = d . x_N, b = d_z, d = hip
        # - wheel center, from the cache's point pass: the row is e . J_d +
        # (b (d . c1) / |d|^2) dx_N with e = (b x_N - a ez) / |d|^2, and the
        # split is left minus right
        P, V, A = (q[TASK_POINTS].tolist() for q in (
            kc.points, kc.point_velocities, kc.point_bias_acc))
        split, turn, split_bias = (), 0.0, 0.0
        for sign, i in ((1.0, 0), (-1.0, 1)):
            d, d_d, d_dd = ([h - w for h, w in zip(q[i + 2], q[i])] for q in (P, V, A))
            (a, a_d, a_dd, d_c1), b, b_d, b_dd = along(d, d_d, d_dd), d[2], d_d[2], d_dd[2]
            D = a * a + b * b
            sb = sign * b / D
            split += (sb * xn0, sb * xn1, -sign * a / D)
            turn += sb * d_c1
            split_bias += sign * ((b * a_dd - a * b_dd) / D
                                  - 2.0 * (b * a_d - a * b_d) * (a * a_d + b * b_d) / (D * D))

        # r_com_x = (p_com - mid) . x_N with the contact midpoint moving as
        # the wheel-center midpoint (the normals are held fixed)
        p_com, M = kc.com
        v_com = kc.com_jacobian @ kc.state.vel
        r_vec = p_com - 0.5 * (p_cl + p_cr)
        _, _, balance_bias, tb = along(r_vec.tolist(), *(
            [c - 0.5 * (l + r) for c, l, r in zip(*q)] for q in (
                (v_com.tolist(), V[0], V[1]),
                ((self.desc.masses @ kc.com_bias_acc / M).tolist(), A[0], A[1]))))

        # The rows in task order (height, pitch, balance, roll, split, yaw),
        # each a combination of the TASK_JACOBIANS (wheel centers, hips, base
        # rotation); balance adds x_N . J_com.  Height is measured against
        # the contact midpoint, but the contacts are an exogenous terrain
        # measurement: only the base motion is differentiated (their vertical
        # motion is pinned by the rolling constraint anyway).  The base origin
        # moves with u[0:3] itself, so the row has no bias.
        hb0, hb1, Z12 = -0.5 * xn0, -0.5 * xn1, (0.0,) * 12
        C = np.array((0.0,) * 15 + Z12 + (-xn1, xn0, 0.0)
                     + (hb0, hb1, 0.0, hb0, hb1, 0.0) + Z12[:6] + (tb * dx0, tb * dx1, tb)
                     + Z12 + (xn0 / nh, xn1 / nh, 0.0)
                     + tuple(-c for c in split) + split + (turn * dx0, turn * dx1, turn)
                     + Z12 + (dx0, dx1, 1.0))
        J16 = C.reshape(6, 15) @ kc.jacobians[TASK_JACOBIANS].reshape(15, NV_TREE)
        J16[0, 2] = 1.0
        J16[2] += x_n @ kc.com_jacobian
        jdot_u = np.array((0.0, xn1 * v0 - xn0 * v1, balance_bias,
                           -v_xn / nh, split_bias, k * v_xn - v2))
        J = J16 @ self.G

        # The task values: the split is left minus right pendulum angle, h is
        # over the contact midpoint and r the CoM offset from it along x_N, its
        # rate moving the contacts with the wheel centers.  s's rate is the CoM
        # velocity along the current heading: the turn of x_N itself would add
        # a rate proportional to the distance from the world origin.
        d = kc.points[HIP_POINTS] - kc.points[WHEEL_POINTS]
        (a_l, a_r), (b_l, b_r) = (d @ x_n).tolist(), d[:, 2].tolist()
        roll, pitch, yaw = euler_zyx(kc.R[BASE])
        h = float(kc.o[BASE, 2] - 0.5 * (p_cl[2] + p_cr[2]))
        v_rel = v_com - 0.5 * (kc.v_origin[WHEEL_L] + kc.v_origin[WHEEL_R])
        return TaskJacobians(
            J=J, Jdot_u=jdot_u,
            Lambda=np.array([math.atan2(a_l, b_l) - math.atan2(a_r, b_r), h, roll, pitch, yaw]),
            Lambda_dot=(J @ kc.y.vel)[TASK_ROWS[:5]],
            Lambda_com=np.array([r_vec @ x_n, x_n @ v_rel + r_vec @ x_d, p_com @ x_n, x_n @ v_com]),
            r_z=float(r_vec[2]))


class OutOfReachError(ValueError):
    """A wheel target farther from or nearer to the hip than the leg reaches."""


def leg_ik(desc: RobotDescription, hip_to_wheel: np.ndarray) -> tuple[float, float]:
    """Hip and knee angle (q_hip, q_knee) placing the wheel center at the
    given offset from the hip joint, expressed in the base frame (x, z used).

    The knee folds backward (q_knee <= 0).
    """
    l1 = abs(float(desc.joints[1].origin[2]))
    l2 = abs(float(desc.joints[3].origin[2]))
    # positive rotation about +y moves the leg tip toward -x
    a, z = -float(hip_to_wheel[0]), float(hip_to_wheel[2])
    r2 = a * a + z * z
    c2 = (r2 - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    if not -1.0 <= c2 <= 1.0:
        raise OutOfReachError("wheel target out of reach of the leg")
    q_knee = -np.arccos(c2)
    q_hip = np.arctan2(a, -z) - np.arctan2(l2 * np.sin(q_knee), l1 + l2 * np.cos(q_knee))
    return float(q_hip), float(q_knee)
