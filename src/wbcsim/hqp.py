"""Lexicographic whole-body QP over x = (udot_y, F_C, tau_a) in R^22.

Each priority level minimizes ||A_i x - b_i||^2 subject to the closed-loop
dynamics equalities, the rolling-constraint rows, torque box inequalities,
and achieved-value pins A_j x = A_j x_j* from all higher levels.  Levels
are solved by a primal active-set iteration on the KKT system, stepping
between feasible points so every working set stays consistent.  Each level
starts from the previous level's solution; no active set is carried over
from one solve to the next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .dynamics import ClosedLoopDynamics
from .task_control import TaskStack

NX = 22                      # 12 accelerations + 4 contact forces + 6 torques
TAU_SLICE = slice(16, 22)

CYCLE_LIMIT = 200
FEAS_TOL = 1e-8
ACTIVE_TOL = 1e-10


class HqpError(RuntimeError):
    level: int | None = None     # priority level, set by HierarchySolver.solve


class InfeasibleError(HqpError):
    def __init__(self, residual: float,
                 what: str = "equality constraints inconsistent"):
        super().__init__(f"{what} (min residual {residual:.3e})")


class CycleLimitError(HqpError):
    pass


@dataclass
class ConstraintSet:
    A_eq: np.ndarray             # 16x22
    b_eq: np.ndarray             # (16,)
    A_ineq: np.ndarray           # (m, 22), rows A_ineq x <= b_ineq
    b_ineq: np.ndarray


@dataclass
class HqpSolution:
    x: np.ndarray
    tau_a: np.ndarray
    F_C: np.ndarray
    udot_y: np.ndarray
    residuals: np.ndarray        # per-level ||A_i x* - b_i||
    active_sets: list


def dynamics_constraints(cl: ClosedLoopDynamics, S: np.ndarray,
                         torque_limit: float) -> ConstraintSet:
    """Equality rows (12 dynamics + 4 rolling) and torque box inequalities."""
    G = cl.G
    A_eq = np.zeros((16, NX))
    A_eq[:12, :12] = cl.H_y
    A_eq[:12, 12:16] = -G.T @ cl.J_gc
    A_eq[:12, 16:22] = -G.T @ S.T
    A_eq[12:16, :12] = cl.J_xz
    b_eq = np.concatenate([-cl.C_y, -cl.Jdot_xz_u])

    A_ineq = np.zeros((12, NX))
    for j in range(6):
        A_ineq[2 * j, 16 + j] = 1.0
        A_ineq[2 * j + 1, 16 + j] = -1.0
    b_ineq = np.full(12, float(torque_limit))
    return ConstraintSet(A_eq=A_eq, b_eq=b_eq, A_ineq=A_ineq, b_ineq=b_ineq)


def feasible_start(E, f, G_in=None, h_in=None, n=NX):
    """Minimum-norm point on the equality manifold; must satisfy the bounds."""
    if len(E):
        x = np.linalg.lstsq(E, f, rcond=None)[0]
        res = np.abs(E @ x - f).max()
        if res > FEAS_TOL * max(1.0, np.abs(f).max(), np.abs(x).max()):
            raise InfeasibleError(float(res))
    else:
        x = np.zeros(n)
    if G_in is not None and len(G_in):
        viol = float((G_in @ x - h_in).max())
        if viol > ACTIVE_TOL:
            # phase-1 LP: minimize the worst bound violation on the manifold
            m = len(G_in)
            c = np.zeros(n + 1)
            c[-1] = 1.0
            A_ub = np.hstack([G_in, -np.ones((m, 1))])
            A_eq = np.hstack([E, np.zeros((len(E), 1))]) if len(E) else None
            res = scipy.optimize.linprog(
                c, A_ub=A_ub, b_ub=h_in, A_eq=A_eq,
                b_eq=f if len(E) else None,
                bounds=[(None, None)] * n + [(0.0, None)], method="highs")
            if not res.success or res.x[-1] > 1e-7:
                t = res.x[-1] if res.success else viol
                raise InfeasibleError(float(t),
                                      what="bounds unreachable on the "
                                           "constraint manifold")
            x = res.x[:n]
    return x


def solve_level(A: np.ndarray, b: np.ndarray,
                E: np.ndarray, f: np.ndarray,
                G_in: np.ndarray | None = None, h_in: np.ndarray | None = None,
                x0: np.ndarray | None = None):
    """Min ||A x - b||^2 s.t. E x = f, G_in x <= h_in (unridged least squares).

    Primal active-set iteration from a feasible point.  Each working-set
    step is an unconstrained least squares in the nullspace of the tight
    constraints, so equality feasibility is maintained exactly and no
    (possibly singular) dual KKT system is formed.  Optimality is
    certified by a nonnegative-least-squares fit of the dual on the
    equality nullspace, which stays valid when the working set is
    degenerate (more tight rows than variables) and multipliers are
    non-unique; when the certificate fails, a projected-gradient step
    strictly decreases the objective, which rules out cycling.
    Returns (x, active_set).
    """
    A = np.atleast_2d(A)
    n = A.shape[1]
    H0 = A.T @ A
    g = A.T @ b
    m_in = 0 if G_in is None else len(G_in)
    if x0 is None:
        x = feasible_start(E, f, G_in, h_in, n)
    else:
        x = np.asarray(x0, dtype=float).copy()
    Z = scipy.linalg.null_space(E) if len(E) else np.eye(n)
    if Z.shape[1] == 0:
        return x, frozenset(i for i in range(m_in)
                            if h_in[i] - G_in @ x <= ACTIVE_TOL)

    def tight_set(xc):
        slack = h_in - G_in @ xc
        tol = max(ACTIVE_TOL * max(1.0, np.abs(xc).max()), 1e-9)
        return sorted(np.where(slack <= tol)[0])

    active = tight_set(x) if m_in else []

    for it in range(CYCLE_LIMIT):
        Ga = G_in[active] if active else np.zeros((0, n))
        # free directions: nullspace of the tight rows; x is feasible for
        # them, so x + Z N s stays feasible for any s
        N = scipy.linalg.null_space(Ga @ Z) if active else np.eye(Z.shape[1])
        if N.shape[1]:
            AZN = A @ (Z @ N)
            s = np.linalg.lstsq(AZN, b - A @ x, rcond=None)[0]
            x_qp = x + Z @ (N @ s)
        else:
            x_qp = x
        feas_scale = max(1.0, float(np.abs(x_qp).max()),
                         float(np.abs(f).max()) if len(f) else 0.0)
        p = x_qp - x
        q = H0 @ x - g               # objective gradient at x
        stationary = np.abs(p).max() <= 1e-11 * feas_scale
        if not stationary:
            # the KKT solve is accurate only to roundoff at the problem
            # scale; reject steps that do not decrease the objective
            # instead of ping-ponging between a polished point and a
            # sloppy working-set minimizer
            obj0 = float(np.sum((A @ x - b) ** 2))
            obj1 = float(np.sum((A @ x_qp - b) ** 2))
            stationary = obj1 >= obj0 * (1.0 - 1e-10)
        if stationary:
            # stationary on the working set: certify or escape
            w = Z.T @ q
            if active:
                M = Z.T @ Ga.T
                mu, _ = scipy.optimize.nnls(M, -w)
                r = w + M @ mu
            else:
                r = w
            # relative to the terms forming the gradient, so large solution
            # magnitudes do not fail the certificate on roundoff
            grad_scale = max(1.0, float(np.abs(H0 @ x).max()),
                             float(np.abs(g).max()))
            if np.linalg.norm(r) <= 1e-8 * grad_scale:
                return x, frozenset(active)
            p = -Z @ r                           # strict descent, E p = 0
            alpha = float(r @ r) / max(float(p @ (H0 @ p)), 1e-300)
        else:
            alpha = 1.0
        # ratio test against the inactive bounds
        blocker = None
        if m_in:
            gp = G_in @ p
            slack = np.maximum(h_in - G_in @ x, 0.0)
            for i in range(m_in):
                if i in active or gp[i] <= ACTIVE_TOL:
                    continue
                a_i = slack[i] / gp[i]
                if a_i < alpha - 1e-14:
                    alpha, blocker = a_i, i
        x = x + alpha * p
        if m_in:
            active = tight_set(x)
            if blocker is not None and blocker not in active:
                active = sorted(active + [blocker])
    raise CycleLimitError(f"active set did not settle in {CYCLE_LIMIT} iterations")


class HierarchySolver:
    """Cascaded lexicographic solver: one least-squares level at a time, each
    started from the previous level's solution.  It keeps no state between
    solves."""

    def solve(self, stack: TaskStack, constraints: ConstraintSet) -> HqpSolution:
        levels = stack.levels
        E = constraints.A_eq.copy()
        f = constraints.b_eq.copy()
        x = None               # previous level's solution is a feasible start
        residuals = np.empty(len(levels))
        actives = []
        for i, lv in enumerate(levels):
            try:
                x, act = solve_level(lv.A, lv.b, E, f,
                                     constraints.A_ineq, constraints.b_ineq,
                                     x0=x)
            except HqpError as exc:
                exc.level = i
                exc.args = (f"level {i}: {exc.args[0]}",)
                raise
            residuals[i] = np.linalg.norm(lv.A @ x - lv.b)
            actives.append(act)
            # pin the achieved task value for all lower levels
            E = np.vstack([E, lv.A])
            f = np.concatenate([f, lv.A @ x])
        return HqpSolution(x=x, tau_a=x[TAU_SLICE].copy(), F_C=x[12:16].copy(),
                           udot_y=x[:12].copy(), residuals=residuals,
                           active_sets=actives)


def solve_hierarchy(stack: TaskStack, constraints: ConstraintSet) -> HqpSolution:
    """One-shot cascade solve."""
    return HierarchySolver().solve(stack, constraints)
