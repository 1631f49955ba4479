"""Hierarchical QP tests: the generic 22-unknown cascade against a nullspace
lexicographic oracle, and the run-path torque-space solver against the
cascade over the padded six task rows."""

import dataclasses
from importlib.resources import files

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linprog

from wbcsim.dynamics import closed_loop_dynamics
from wbcsim.hqp import HierarchySolver, HqpError, _bounded_lex, _projector, feasible_start
from wbcsim.model import selection_matrix
from wbcsim.scenario import load_scenario
from wbcsim.simulator import run_scenario
from wbcsim.task_control import assemble_task_stack

from conftest import random_minimal_state
from hqp_cascade import (NX, TORQUE_BOX, InfeasibleError, Level, solve_hierarchy,
                         solve_level, solve_stack)

EZ = np.array([0.0, 0.0, 1.0])


def nullspace_lex_oracle(levels, E, f, n=NX):
    """Lexicographic least squares by explicit nullspace parameterization.

    Structurally different from the cascade's achieved-value pinning: the
    feasible set is carried as x0 + Z t and shrunk level by level.
    """
    if len(E):
        x0 = np.linalg.lstsq(E, f, rcond=None)[0]
        Z = scipy.linalg.null_space(E)
    else:
        x0 = np.zeros(n)
        Z = np.eye(n)
    for A, b in levels:
        if Z.shape[1] == 0:
            break
        Az = A @ Z
        t = np.linalg.lstsq(Az, b - A @ x0, rcond=None)[0]
        x0 = x0 + Z @ t
        N = scipy.linalg.null_space(Az)
        Z = Z @ N if N.shape[1] else np.zeros((n, 0))
    return x0, np.array([np.linalg.norm(A @ x0 - b) for A, b in levels])


def random_problem(rng, n_eq=8, n_levels=6):
    E = rng.normal(size=(n_eq, NX))
    f = E @ rng.normal(size=NX)                 # consistent by construction
    levels = []
    for _ in range(n_levels):
        m = int(rng.integers(1, 5))
        levels.append((rng.normal(size=(m, NX)), rng.normal(size=m)))
    return levels, E, f


def to_levels(levels):
    return [Level(A=A, b=b) for A, b in levels]


# -- single level -----------------------------------------------------------

def test_unconstrained_full_rank_matches_pinv():
    rng = np.random.default_rng(40)
    A = rng.normal(size=(NX, NX)) + 3 * np.eye(NX)
    b = rng.normal(size=NX)
    x, _ = solve_level(A, b, np.zeros((0, NX)), np.zeros(0))
    assert np.allclose(x, np.linalg.pinv(A) @ b, atol=1e-8)


def test_equality_only_matches_kkt_oracle():
    rng = np.random.default_rng(41)
    for _ in range(20):
        # full column rank so the constrained minimizer is unique
        A = rng.normal(size=(NX + 4, NX))
        b = rng.normal(size=NX + 4)
        E = rng.normal(size=(4, NX))
        f = rng.normal(size=4)
        x, _ = solve_level(A, b, E, f)
        KKT = np.block([[A.T @ A, E.T], [E, np.zeros((4, 4))]])
        x_oracle = np.linalg.solve(KKT, np.concatenate([A.T @ b, f]))[:NX]
        assert np.allclose(x, x_oracle, atol=1e-8)


def test_binding_torque_bound_kkt():
    # objective pulls tau_0 to 1.2 tau_max; bound must clip with mu >= 0
    tau_max = 40.0
    A = np.zeros((1, NX))
    A[0, 16] = 1.0
    b = np.array([1.2 * tau_max])
    G = np.zeros((2, NX))
    G[0, 16], G[1, 16] = 1.0, -1.0
    h = np.array([tau_max, tau_max])
    x, active = solve_level(A, b, np.zeros((0, NX)), np.zeros(0), G, h)
    assert x[16] == pytest.approx(tau_max, abs=1e-8)
    assert active == frozenset({0})
    # stationarity: H x - A^T b + G_a^T mu = 0 along the bound direction
    mu = (A.T @ b - (A.T @ A + 1e-8 * np.eye(NX)) @ x)[16]
    assert mu > 0.0


def test_inactive_bounds_do_not_perturb():
    rng = np.random.default_rng(42)
    A = rng.normal(size=(4, NX))
    b = rng.normal(size=4) * 0.01
    G = np.vstack([np.eye(NX), -np.eye(NX)])
    h = np.full(2 * NX, 1e6)
    x1, act = solve_level(A, b, np.zeros((0, NX)), np.zeros(0), G, h)
    x2, _ = solve_level(A, b, np.zeros((0, NX)), np.zeros(0))
    assert act == frozenset()
    assert np.allclose(x1, x2, atol=1e-10)


def test_infeasible_equalities_raise():
    E = np.zeros((2, NX))
    E[0, 0] = E[1, 0] = 1.0
    f = np.array([1.0, 2.0])                    # x0 = 1 and x0 = 2
    with pytest.raises(InfeasibleError):
        solve_level(np.eye(NX), np.zeros(NX), E, f)


# -- cascade ----------------------------------------------------------------

def test_cascade_matches_nullspace_oracle():
    rng = np.random.default_rng(43)
    for _ in range(200):
        levels, E, f = random_problem(rng)
        sol = solve_hierarchy(to_levels(levels), E, f)
        _, res_oracle = nullspace_lex_oracle(levels, E, f)
        assert np.allclose(sol.residuals, res_oracle, atol=1e-7)
        # monotonicity: the final x never degrades any solved level
        for i, (A, b) in enumerate(levels):
            assert np.linalg.norm(A @ sol.x - b) <= sol.residuals[i] + 1e-9
        assert np.abs(E @ sol.x - f).max() < 1e-8


def test_orthogonal_levels_both_exact():
    A1 = np.zeros((2, NX)); A1[0, 0] = A1[1, 1] = 1.0
    A2 = np.zeros((2, NX)); A2[0, 2] = A2[1, 3] = 1.0
    b1, b2 = np.array([1.0, -2.0]), np.array([0.5, 4.0])
    sol = solve_hierarchy(to_levels([(A1, b1), (A2, b2)]),
                          np.zeros((0, NX)), np.zeros(0))
    assert np.allclose(sol.residuals, 0.0, atol=1e-7)
    joint = np.linalg.lstsq(np.vstack([A1, A2]),
                            np.concatenate([b1, b2]), rcond=None)[0]
    assert np.allclose(sol.x[:4], joint[:4], atol=1e-6)


def test_conflicting_rows_lexicographic():
    a = np.zeros((1, NX)); a[0, 0] = 1.0
    levels = [(a, np.array([1.0])), (a.copy(), np.array([3.0]))]
    sol = solve_hierarchy(to_levels(levels), np.zeros((0, NX)), np.zeros(0))
    assert sol.residuals[0] == pytest.approx(0.0, abs=1e-7)
    assert sol.residuals[1] == pytest.approx(2.0, abs=1e-6)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-6)


def test_tail_permutation_preserves_head():
    rng = np.random.default_rng(44)
    levels, E, f = random_problem(rng)
    swapped = levels[:4] + [levels[5], levels[4]]
    r1 = solve_hierarchy(to_levels(levels), E, f).residuals
    r2 = solve_hierarchy(to_levels(swapped), E, f).residuals
    assert np.allclose(r1[:4], r2[:4], atol=1e-9)


def test_deterministic():
    rng = np.random.default_rng(45)
    levels, E, f = random_problem(rng)
    x1 = solve_hierarchy(to_levels(levels), E, f).x
    x2 = solve_hierarchy(to_levels(levels), E, f).x
    assert np.array_equal(x1, x2)


# -- physical problem -------------------------------------------------------

def test_dynamics_constraint_layout(model):
    rng = np.random.default_rng(47)
    y = random_minimal_state(rng)
    cl = closed_loop_dynamics(model, model.kinematics(y), EZ, EZ)
    K, B = cl.K, model.B
    assert K.shape == (16, 16)
    assert np.array_equal(K[:12, :12], cl.H_y)
    assert np.array_equal(K[:12, 12:], -cl.G.T @ cl.J_gc)
    assert np.array_equal(K[12:, :12], cl.J_xz)
    assert np.all(K[12:, 12:] == 0.0)
    # the start meets K x0 = b, b = -(C_y, Jdot_xz_u), and K T = B
    x0, T = feasible_start(cl, B)
    assert np.allclose(K[:12] @ x0, -cl.C_y, rtol=0.0, atol=1e-9)
    assert np.allclose(K[12:] @ x0, -cl.Jdot_xz_u, rtol=0.0, atol=1e-9)
    assert np.allclose(K @ T, B, rtol=0.0, atol=1e-9)
    assert B.shape == (16, 6)
    assert np.array_equal(B[:12], cl.G.T @ selection_matrix().T)
    assert np.all(B[12:] == 0.0)
    # the actuated joints are the independent joints, in the same order
    assert np.all(B[:6] == 0.0) and np.array_equal(B[6:12], np.eye(6))
    assert HierarchySolver(B, 40).torque_limit == 40.0


def test_full_solve_satisfies_eom_and_bounds(model):
    """The run-path solver and the cascade, on the same problems."""
    rng = np.random.default_rng(48)
    for _ in range(5):
        y = random_minimal_state(rng)
        kc = model.kinematics(y)
        cl = closed_loop_dynamics(model, kc, EZ, EZ)
        b = -np.concatenate([cl.C_y, cl.Jdot_xz_u])
        tj = model.task_jacobians(kc, cl.p_cl, cl.p_cr)
        b_task = assemble_task_stack(rng.normal(size=5), rng.normal(), tj)
        for sol in (HierarchySolver(model.B, 40.0).solve(tj.J, b_task, cl),
                    solve_stack(tj.J, b_task, cl, model.B, 40.0)):
            assert np.abs(cl.K @ sol.x[:16] - model.B @ sol.tau_a - b).max() < 1e-8
            assert np.all(TORQUE_BOX @ sol.x <= 40.0 + 1e-10)
            assert np.abs(sol.tau_a).max() <= 40.0 + 1e-10
            # EoM residual in closed-loop coordinates
            lhs = cl.H_y @ sol.udot_y + cl.C_y
            rhs = cl.G.T @ (cl.J_gc @ sol.F_C + selection_matrix().T @ sol.tau_a)
            assert np.allclose(lhs, rhs, atol=1e-7)


def test_level_index_in_error(model):
    E = np.zeros((2, NX))
    E[0, 0] = E[1, 0] = 1.0
    f = np.array([1.0, 2.0])
    levels = [(np.eye(NX), np.zeros(NX))] * 3
    with pytest.raises(InfeasibleError) as exc_info:
        solve_hierarchy(to_levels(levels), E, f)
    assert exc_info.value.level == 0
    assert "level 0" in str(exc_info.value)


# -- run-path solver against the cascade --------------------------------------

def _assert_matches_cascade(model, J, b, cl):
    """Same residual profile and torques as the cascade; True when a torque
    bound is active in the cascade's solution.  The cascade is trusted only
    where its own torques stay inside the box."""
    limit = model.desc.torque_limit
    sol = HierarchySolver(model.B, limit).solve(J, b, cl)
    ref = solve_stack(J, b, cl, model.B, limit)
    assert np.all(np.abs(ref.tau_a) <= limit + 1e-7)
    assert np.allclose(sol.residuals, ref.residuals, rtol=1e-9, atol=1e-7)
    assert np.allclose(sol.tau_a, ref.tau_a, rtol=0.0, atol=1e-7)
    return any(ref.active_sets)


def test_torque_space_solver_matches_cascade_200_physical_problems(model):
    """Random states and contact normals, with the desired accelerations
    scaled by up to 1000 so that torque bounds bind in many problems."""
    rng = np.random.default_rng(49)

    def tilted():
        n = np.array([*rng.uniform(-0.5, 0.5, 2), 1.0])
        return n / np.linalg.norm(n)

    saturated = 0
    for _ in range(200):
        y = random_minimal_state(rng)
        n_l, n_r = tilted(), tilted()
        kc = model.kinematics(y)
        cl = closed_loop_dynamics(model, kc, n_l, n_r)
        tj = model.task_jacobians(kc, cl.p_cl, cl.p_cr)
        scale = 10.0 ** rng.uniform(0.0, 3.0)
        b = assemble_task_stack(scale * rng.normal(size=5), scale * rng.normal(), tj)
        saturated += _assert_matches_cascade(model, tj.J, b, cl)
    assert saturated >= 50


def test_torque_space_solver_matches_cascade_on_saturated_cycles(model, monkeypatch):
    """Every cycle with an active torque bound in a horizontal-normal
    slope_impact run, re-solved by the cascade."""
    seen = []
    solve = HierarchySolver.solve

    def recording(self, J, b, cl):
        sol = solve(self, J, b, cl)
        if any(sol.active_sets):
            seen.append((J, b, cl))
        return sol

    monkeypatch.setattr(HierarchySolver, "solve", recording)
    scenario = load_scenario(
        str(files("wbcsim").joinpath("data/scenarios/slope_impact.scn")),
        {"estimation_mode": "horizontal_normal"})
    run_scenario(model, scenario, seed=5)
    monkeypatch.undo()
    assert len(seen) >= 5
    for J, b, cl in seen:
        assert _assert_matches_cascade(model, J, b, cl)


def test_singular_or_nonfinite_dynamics_raise_hqp_error(model):
    rng = np.random.default_rng(50)
    y = random_minimal_state(rng)
    kc = model.kinematics(y)
    cl = closed_loop_dynamics(model, kc, EZ, EZ)
    tj = model.task_jacobians(kc, cl.p_cl, cl.p_cr)
    b = assemble_task_stack(rng.normal(size=5), rng.normal(), tj)
    for col, value, match in ((3, 0.0, "singular"), (0, np.nan, "not finite")):
        bad = dataclasses.replace(cl, K=cl.K.copy())
        bad.K[:, col] = value
        with pytest.raises(HqpError, match=match):
            HierarchySolver(model.B, 40.0).solve(tj.J, b, bad)


# -- run-path solver against a linear-programming oracle ---------------------

def lp_lex_oracle(M, r, lim):
    """Per-level residuals of the lexicographic problem over |tau| <= lim.

    With one-row levels, level i's best value is r_i clipped to the range of
    m_i tau over the box and the values the earlier levels reached; two
    HiGHS LPs give that range, so no least-squares step is shared with the
    solver under test.
    """
    A, b, res = np.zeros((0, M.shape[1])), np.zeros(0), []
    for m, ri in zip(M, r):
        eq = {"A_eq": A, "b_eq": b} if len(b) else {}
        lo = linprog(m, bounds=(-lim, lim), method="highs", **eq)
        hi = linprog(-m, bounds=(-lim, lim), method="highs", **eq)
        assert lo.status == 0 and hi.status == 0
        s = min(max(ri, lo.fun), -hi.fun)
        res.append(abs(s - ri))
        A, b = np.vstack([A, m]), np.append(b, s)
    return np.array(res)


def rank_deficient_problem(rng):
    """Six one-row levels over six torques, some rows repeated (scaled),
    summed from the first two or nearly axis-aligned, so that levels depend
    on earlier ones; the targets are large enough for the box to bind."""
    M = rng.normal(size=(6, 6))
    for i in range(1, 6):
        kind = rng.integers(0, 6)
        if kind == 0:
            M[i] = M[rng.integers(i)] * rng.choice([1.0, -2.0])
        elif kind == 1 and i > 1:
            M[i] = M[0] + M[1]
        elif kind == 2:
            M[i] = 0.0
            M[i, rng.integers(6)] = 1.0
            M[i, rng.integers(6)] += 0.5
    r = rng.normal(size=6) * 10.0 ** rng.uniform(-1.0, 2.0, 6)
    return M, r, rng.uniform(0.2, 3.0)


def test_projector_skips_pinned_rows_that_pin_nothing_new():
    """A pinned row that is a multiple of an earlier one, or that lies on
    held torques only, leaves the projector unchanged."""
    rng = np.random.default_rng(52)
    free = np.array([False, True, True, True, True, False])
    a = rng.normal(size=6)
    on_held = np.array([1.0, 0.0, 0.0, 0.0, 0.0, -2.0])
    P = _projector(free, [a])
    assert np.allclose(P @ P, P) and np.allclose(P @ a, 0.0)
    assert np.allclose(P[~free], 0.0) and np.allclose(P[:, ~free], 0.0)
    assert np.array_equal(_projector(free, [a, -2.0 * a]), P)
    assert np.array_equal(_projector(free, [on_held, a]), P)


def test_bounded_lex_matches_lp_oracle_on_rank_deficient_levels():
    rng = np.random.default_rng(51)
    deficient = held = 0
    for _ in range(300):
        M, r, lim = rank_deficient_problem(rng)
        tau, tight = _bounded_lex(M, r, lim)
        assert np.abs(tau).max() <= lim * (1.0 + 1e-12)
        assert np.allclose(np.abs(M @ tau - r), lp_lex_oracle(M, r, lim),
                           rtol=1e-9, atol=1e-7)
        deficient += np.linalg.matrix_rank(M) < 6
        held += any(tight)
    assert deficient >= 100 and held >= 100
