"""The generic 22-unknown lexicographic active-set cascade, kept as the
test oracle of the run-path solver in ``wbcsim.hqp``.

On a run-path problem the six task rows are padded with zeros over F_C and
tau, and the contact KKT K (udot_y, F_C) = b + B tau becomes the equality
rows [K, -B] x = b (:func:`solve_stack`), b = -(C_y, Jdot_xz_u).

Each priority level minimizes ||A_i x - b_i||^2 subject to the equality
rows, the inequality rows, and achieved-value pins A_j x = A_j x_j* from
all higher levels.  Levels are solved by a primal active-set iteration on
the KKT system, stepping between feasible points so every working set
stays consistent.  Each level starts from the previous level's solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from wbcsim.hqp import HqpError, HqpSolution

NX = 22                      # 12 accelerations + 4 contact forces + 6 torques
TAU_SLICE = slice(16, 22)
CYCLE_LIMIT = 200
FEAS_TOL = 1e-8
ACTIVE_TOL = 1e-10

# the torque box of wbcsim.hqp.HierarchySolver as rows A_ineq x <= b_ineq
TORQUE_BOX = np.zeros((12, NX))
TORQUE_BOX[0::2, TAU_SLICE] = np.eye(6)
TORQUE_BOX[1::2, TAU_SLICE] = -np.eye(6)


@dataclass
class Level:
    """One priority level over the 22 unknowns: min ||A x - b||^2."""
    A: np.ndarray                # (m, 22)
    b: np.ndarray                # (m,)


class CycleLimitError(HqpError):
    pass


class InfeasibleError(HqpError):
    def __init__(self, residual: float,
                 what: str = "equality constraints inconsistent"):
        super().__init__(f"{what} (min residual {residual:.3e})")


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


def solve_stack(J, b, cl, B, torque_limit) -> HqpSolution:
    """The cascade on the task rows J udot_y = b and a ``ClosedLoopDynamics``:
    one padded level per task row, the equality rows [K, -B] x = -(C_y,
    Jdot_xz_u) and the torque box |tau| <= torque_limit."""
    A = np.hstack([J, np.zeros((len(b), NX - 12))])
    levels = [Level(A=A[i:i + 1], b=b[i:i + 1]) for i in range(len(A))]
    return solve_hierarchy(levels, np.hstack([cl.K, -B]),
                           -np.concatenate([cl.C_y, cl.Jdot_xz_u]), TORQUE_BOX,
                           np.full(12, torque_limit))


def solve_hierarchy(levels, E, f, A_ineq=None, b_ineq=None) -> HqpSolution:
    """Cascaded lexicographic solve of ``levels`` (a list of Level) subject to
    E x = f and A_ineq x <= b_ineq: one least-squares level at a time, each
    started from the previous level's solution."""
    x = None               # previous level's solution is a feasible start
    residuals = np.empty(len(levels))
    actives = []
    for i, lv in enumerate(levels):
        try:
            x, act = solve_level(lv.A, lv.b, E, f,
                                 A_ineq, b_ineq,
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
