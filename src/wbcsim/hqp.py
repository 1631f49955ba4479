"""Lexicographic whole-body QP over x = (udot_y, F_C, tau_a) in R^22.

The contact KKT rows K (udot_y, F_C) = b + B tau give (udot_y, F_C) = x0 + T tau:
the six task rows over udot_y become a lexicographic least squares over the
six boxed torques (torque-space TSID, Del Prete et al., 2016), solved level by
level (Escande et al., IJRR 2014) by BVLS (Stark & Parker, 1995).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .dynamics import ClosedLoopDynamics

CYCLE_LIMIT = 200            # active-set iterations per level
DEP_TOL = 1e-20              # squared norm ratio below which a row is dependent
MU_TOL = 1e-10               # relative size of a nonzero bound multiplier


class HqpError(RuntimeError):
    pass


@dataclass
class HqpSolution:
    x: np.ndarray
    tau_a: np.ndarray
    F_C: np.ndarray
    udot_y: np.ndarray
    residuals: np.ndarray        # per-level |J_i udot_y* - b_i|
    active_sets: list            # per level, the bound rows held at its solution


def feasible_start(cl: ClosedLoopDynamics, B: np.ndarray):
    """x0, T with (x0 + T tau, tau) meeting the 16 equality rows (12
    dynamics + 4 rolling) K (udot_y, F_C) = -(C_y, Jdot_xz_u) + B tau for
    every tau; tau = 0 is in the box, so (x0, 0) is feasible."""
    try:                                 # one LU of K for all 7 right sides
        KiB = np.linalg.solve(cl.K, np.column_stack(
            [np.concatenate([-cl.C_y, -cl.Jdot_xz_u]), B]))
    except np.linalg.LinAlgError as exc:
        raise HqpError(f"dynamics equalities singular: {exc}") from None
    if not np.isfinite(KiB).all():
        raise HqpError("dynamics equalities not finite")
    return KiB[:, 0], KiB[:, 1:]


def _projector(free: np.ndarray, pins: list) -> np.ndarray:
    """Projector onto the free torques' moves that keep each pinned row."""
    P = np.diag(free.astype(float))
    for a in pins:
        w = P @ a
        ww = w @ w
        if ww > DEP_TOL * (a @ a):       # a dependent row pins nothing new
            P -= np.outer(w, w) / ww
    return P


def solve_level(m, ri, tau, lim, fixed, pins):
    """Min of (m tau - ri)^2 over |tau| <= lim keeping ``fixed`` torques and
    ``pins`` rows; updates all three in place, returns the torques held.

    A torque that blocks a step is held at its bound until its multiplier
    has the wrong sign.  A level met exactly pins its row; a level the bounds
    stop fixes the torques with positive multipliers, bound in all its minima."""
    held = fixed.copy()
    for _ in range(CYCLE_LIMIT):
        g = _projector(~held, pins) @ m
        e = ri - m @ tau
        gg = g @ g
        if gg > DEP_TOL * (m @ m):
            d = g * (e / gg)             # meets the level exactly
            room = np.full(len(tau), np.inf)
            move = ~held & (np.abs(d) > 1e-12 * np.abs(d).max())
            room[move] = (np.copysign(lim, d) - tau)[move] / d[move]
            j = int(np.argmin(room))
            tau += min(max(room[j], 0.0), 1.0) * d
            if room[j] >= 1.0:
                pins.append(m)
                return held
            tau[j] = np.copysign(lim, d[j])
            held[j] = True
            continue
        mu = np.zeros_like(tau)          # stationary: multipliers of the bounds
        for j in np.flatnonzero(held & ~fixed):
            Q = _projector(~held | (np.arange(len(tau)) == j), pins)
            mu[j] = e * np.sign(tau[j]) * (Q[j] @ m) / Q[j, j]
        scale = MU_TOL * abs(e) * np.sqrt(m @ m)
        if mu.min() < -scale:
            held[np.argmin(mu)] = False
            continue
        fixed |= mu > scale
        return held
    raise HqpError(f"active set did not settle in {CYCLE_LIMIT} iterations")


def _bounded_lex(M: np.ndarray, r: np.ndarray, lim: float):
    """Lexicographic min of (M_i tau - r_i)^2 over |tau| <= lim; returns tau
    and the bound rows held after each level."""
    with suppress(np.linalg.LinAlgError):    # M singular: no closed form
        tau = np.linalg.solve(M, r)          # no torque held: the closed form
        if (np.abs(tau) <= lim).all():
            return tau, [frozenset()] * len(r)
    tau, fixed = np.zeros(len(r)), np.zeros(len(r), dtype=bool)  # tau = 0 is feasible
    pins, tight = [], []                 # fixed: held by a higher level
    for m, ri in zip(M, r):
        held = solve_level(m, ri, tau, lim, fixed, pins)
        tight.append(frozenset(2 * j + (tau[j] < 0.0) for j in np.flatnonzero(held)))
    return tau, tight


class HierarchySolver:
    """Lexicographic solver over the torques, one level per task row; B =
    [G^T S^T; 0] (RobotModel.B) and the box |tau_j| <= torque_limit are the robot's."""

    def __init__(self, B: np.ndarray, torque_limit: float):
        self.B, self.torque_limit = B, float(torque_limit)

    def solve(self, J: np.ndarray, b: np.ndarray, cl: ClosedLoopDynamics) -> HqpSolution:
        x0, T = feasible_start(cl, self.B)
        M = J @ T[:12]
        r = b - J @ x0[:12]
        tau, tight = _bounded_lex(M, r, self.torque_limit)
        x = np.concatenate([x0 + T @ tau, tau])
        residuals = np.abs(J @ x[:12] - b)
        return HqpSolution(x=x, tau_a=tau, F_C=x[12:16].copy(), udot_y=x[:12].copy(),
                           residuals=residuals, active_sets=tight)
