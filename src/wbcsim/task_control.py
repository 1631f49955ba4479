"""Desired task-space accelerations: PD pose tasks + LQR centroidal balance.

Five pose tasks (split phi, height h, roll alpha, pitch beta, yaw gamma)
are tracked by PD laws; the sagittal CoM offset is regulated by an LQR on
the wheeled-inverted-pendulum state (r, rdot, s, sdot), whose Riccati
equation Newton-Kleinman iteration solves with one LU per step, the only
factorization it needs; a Routh-Hurwitz test checks the gain's stability.
The balance law is implemented as  des rddot = -K (Lambda_CoM - ref); the
error-negated variant destabilizes the linearized closed loop, which the
tests verify.
The six desired accelerations are ordered by priority: height, pitch,
balance, roll, split, yaw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import GRAVITY
from .model import TASK_ROWS, TaskJacobians
from .rotations import wrap_angle

# Lambda order (phi, h, alpha, beta, gamma); angular entries get wrapped errors
ANGULAR_TASKS = [0, 2, 3, 4]

# pose stiffness per Lambda entry; the Controller damps with kd = sqrt(kp)
DEFAULT_KP = np.array([100.0, 400.0, 400.0, 400.0, 50.0])
DEFAULT_Q = np.diag([100.0, 1.0, 10.0, 1.0])
DEFAULT_R = 1.0
# pendulum height change (m) that makes the GainScheduler re-solve the LQR
RESCHEDULE_DZ = 0.01


def pd_accel(ref_L: np.ndarray, L: np.ndarray, Ldot: np.ndarray,
             kp: np.ndarray, kd: np.ndarray) -> np.ndarray:
    """a_n = kp_n (ref - L)_n + kd_n (0 - Ldot)_n toward a set point, angle
    errors wrapped."""
    err = np.asarray(ref_L, float) - np.asarray(L, float)
    err[ANGULAR_TASKS] = wrap_angle(err[ANGULAR_TASKS])
    return kp * err + kd * (0.0 - np.asarray(Ldot, float))


@dataclass
class LqrDesign:
    A: np.ndarray                # 4x4
    B: np.ndarray                # (4, 1)
    Q: np.ndarray
    R: float
    K: np.ndarray                # (4,)
    P: np.ndarray                # CARE solution
    r_z: float


class CareError(RuntimeError):
    pass


def pendulum_state_matrices(r_z: float):
    """Linearized wheeled-inverted-pendulum state space, x = (r, rdot, s, sdot)."""
    if r_z <= 0.0:
        raise ValueError("pendulum height must be positive")
    A = np.array([[0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [GRAVITY / r_z, 0.0, 0.0, 0.0]])
    B = np.array([[0.0], [1.0], [0.0], [0.0]])
    return A, B


# Newton-Kleinman iterations before the Riccati solve gives up; at the 32
# corners of the scenario weight box, at 0.05 and 0.5 m, it took at most 26
MAX_NEWTON_STEPS = 50
I4 = np.eye(4)


def is_hurwitz(K: np.ndarray, r_z: float) -> bool:
    """Whether A - B K is stable, by the Routh-Hurwitz test on its
    characteristic polynomial s^4 + k2 s^3 + k1 s^2 + w^2 k4 s + w^2 k3,
    w^2 = g / r_z: every leading Hurwitz minor positive."""
    k1, k2, k3, k4 = K.tolist()
    w2 = GRAVITY / r_z
    a3, a4 = w2 * k4, w2 * k3
    d2 = k2 * k1 - a3
    return k2 > 0.0 and d2 > 0.0 and a3 * d2 - k2 * k2 * a4 > 0.0 and a4 > 0.0


# extreme weights overflow the solve; the residual check reports them
@np.errstate(over="ignore", invalid="ignore")
def lqr_gain(r_z: float, Q: np.ndarray = DEFAULT_Q,
             R: float = DEFAULT_R) -> LqrDesign:
    """Stabilizing LQR gain K = R^-1 B^T P from the Riccati equation.

    Newton-Kleinman iteration (Kleinman 1968): from a stabilizing K, P
    solves the Lyapunov equation (A - BK)^T P + P (A - BK) = -(Q + R K^T K),
    one LU of its 16x16 Kronecker form, and K <- B^T P / R, until K stops
    changing (by at most 1e-12 of its largest entry).  The start gain puts
    the four closed-loop poles at -p, with p^4 = w^2 sqrt(q_3 / R) the
    optimum's constant coefficient.
    """
    Q = np.asarray(Q, dtype=float)
    R = float(R)
    if R <= 0.0:
        raise ValueError("R must be positive")
    q = np.diag(Q)
    if np.any(Q != np.diag(q)) or np.any(q < 0.0):
        raise ValueError("Q must be diagonal with non-negative entries")
    A, B = pendulum_state_matrices(r_z)
    w2 = GRAVITY / r_z
    p = (w2 * np.sqrt(q[2] / R)) ** 0.25
    K = np.array([6.0 * p**2, 4.0 * p, p**4 / w2, 4.0 * p**3 / w2])
    try:
        for _ in range(MAX_NEWTON_STEPS):
            Act = (A - B @ K[None, :]).T
            # kron(Act, I) + kron(I, Act), in one broadcast: np.kron costs
            # several times as much on 4x4 operands
            L = (Act[:, None, :, None] * I4[None, :, None, :]
                 + I4[:, None, :, None] * Act[None, :, None, :]).reshape(16, 16)
            P = np.linalg.solve(L, -(Q + R * np.outer(K, K)).ravel()).reshape(4, 4)
            K, K_prev = P[1] / R, K       # B^T P / R with B = e_2
            if not np.abs(K - K_prev).max() > 1e-12 * np.abs(K).max():
                break
    except np.linalg.LinAlgError as exc:
        raise CareError(f"Riccati solve failed: {exc}") from None
    P = 0.5 * (P + P.T)
    resid = np.linalg.norm(A.T @ P + P @ A - P @ B @ B.T @ P / R + Q)
    # relative to the equation scale, so large weight matrices are not
    # rejected for honest floating-point roundoff
    scale = max(1.0, np.linalg.norm(Q), np.linalg.norm(P))
    if not np.isfinite(resid) or resid > 1e-8 * scale:
        raise CareError(f"Riccati solve did not converge: residual {resid:.3e}")
    K = (B.T @ P / R).ravel()
    if not is_hurwitz(K, r_z):
        raise CareError(f"gain is not stabilizing: K = {K.tolist()}")
    return LqrDesign(A=A, B=B, Q=Q, R=R, K=K, P=P, r_z=float(r_z))


class GainScheduler:
    """Caches the LQR gain, re-solving only when the pendulum height moves
    by more than RESCHEDULE_DZ (A depends on r_z)."""

    def __init__(self, Q: np.ndarray = DEFAULT_Q, R: float = DEFAULT_R):
        self.Q = np.asarray(Q, dtype=float)
        self.R = float(R)
        self.design: LqrDesign | None = None

    def gain(self, r_z: float) -> LqrDesign:
        if self.design is None or abs(r_z - self.design.r_z) > RESCHEDULE_DZ:
            self.design = lqr_gain(r_z, self.Q, self.R)
        return self.design


def balance_accel(K: np.ndarray, ref_Lcom: np.ndarray, Lcom: np.ndarray) -> float:
    """des rddot = -K (Lambda_CoM - ref), state (r, rdot, s, sdot)."""
    e = np.asarray(Lcom, float) - np.asarray(ref_Lcom, float)
    return float(-np.asarray(K, float) @ e)


def assemble_task_stack(pose_acc: np.ndarray, bal_acc: float,
                        tj: TaskJacobians) -> np.ndarray:
    """The right sides b of the six task rows tj.J udot_y = b, ordered by
    priority, highest first.

    pose_acc follows the Lambda order (phi, h, alpha, beta, gamma); TASK_ROWS
    places it and the balance acceleration in the task-Jacobian row order,
    the priority order TASK_NAMES.  Row i reads
    J_i udot_y = des_a_i - Jdot_i u_y, over the 12 accelerations udot_y.
    """
    des = np.empty(6)
    des[TASK_ROWS] = np.asarray(pose_acc, dtype=float).reshape(5).tolist() + [bal_acc]
    b = des - tj.Jdot_u
    if not (np.isfinite(b).all() and np.isfinite(tj.J).all()):
        raise ValueError("task rows must be finite")
    return b
