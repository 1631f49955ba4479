"""Simulator tests: statics, ballistics, energy audit, impacts, scenario parsing."""

import functools
import math
import random
from collections import Counter

import numpy as np
import pytest

from importlib.resources import files

from wbcsim import dynamics, simulator
from wbcsim.dynamics import GRAVITY, closed_loop_dynamics, mechanical_energy
from wbcsim.hqp import HierarchySolver
from wbcsim.model import KinematicsCache, MinimalState, RobotModel, selection_matrix
from wbcsim.rotations import exp_so3, project_to_so3
from wbcsim.scenario import Disturbance, Scenario, ScenarioError, SensorConfig, load_scenario
from wbcsim.simulator import (
    LOG_COLUMNS,
    Controller,
    SimState,
    apply_block_impact,
    contact_dynamics,
    forward_dynamics,
    gaussians,
    initial_state,
    run_scenario,
    step,
    synth_pointcloud,
    uniforms,
    _push_wrench,
)
from wbcsim.terrain import FlatTerrain, SlopeTerrain

import reference_runs
from helpers import contact, exp_so3_matrix, forward_dynamics_free, svd_project_to_so3


def static_actuation(model, y, terrain):
    """Least-squares torques/forces holding the robot still (statics oracle)."""
    n_l = terrain.normal(*model.kinematics(y).wheel_centers()[0][:2])
    n_r = terrain.normal(*model.kinematics(y).wheel_centers()[1][:2])
    cl = closed_loop_dynamics(model, model.kinematics(y), n_l, n_r, mu=terrain.mu)
    # 0 = G^T J_gc F + G^T S^T tau - C_y  ->  solve for (F, tau)
    A = np.hstack([cl.G.T @ cl.J_gc, cl.G.T @ selection_matrix().T])
    sol = np.linalg.lstsq(A, cl.C_y, rcond=None)[0]
    return sol[4:], sol[:4]


def balanced_state(model, terrain, height=0.25):
    """State with the CoM over the contact line, where statics has a solution.

    A wheeled inverted pendulum can only hold still with zero wheel moment,
    so the wheel contacts are shifted fore/aft (bisection on the leg IK
    targets) until the CoM sits over the axle line.
    """
    from scipy.optimize import brentq
    from wbcsim.model import leg_ik

    y = initial_state(model, terrain, height=height)
    desc, R, r_w = model.desc, y.rot, model.desc.wheel_radius

    def with_offset(delta):
        qj = np.zeros(6)
        for k in range(2):
            hip = y.pos + R @ model.desc.hip_origins[k]
            hx, hy = hip[0] + delta, hip[1]
            n = terrain.normal(hx, hy)
            target = terrain.surface_point(hx, hy) + r_w * n
            qj[3 * k:3 * k + 2] = leg_ik(desc, R.T @ (target - hip))
        return MinimalState(pos=y.pos.copy(), rot=R.copy(), qj=qj,
                            vel=np.zeros(12))

    def imbalance(delta):
        kc = model.kinematics(with_offset(delta))
        com, _ = kc.com
        wc = kc.wheel_centers()
        return com[0] - 0.5 * (wc[0][0] + wc[1][0])

    delta = brentq(imbalance, -0.1, 0.1, xtol=1e-12)
    return with_offset(delta)


def settled_hanging_state(model, terrain, n_settle=6000):
    """Passively damp the unactuated robot to its hanging rest configuration."""
    y = initial_state(model, terrain, height=0.25)
    state = SimState(y=y, F_C=np.zeros(4))
    for _ in range(n_settle):
        state = step(model, state, contact(model, state.y, terrain), -0.8 * state.y.vel[6:],
                     1e-3, terrain)
    state.y.vel[:] = 0.0
    state.work_in = state.dissipated = 0.0
    return state


# -- initial conditions ------------------------------------------------------

def test_initial_state_on_surface(model):
    for terrain in (FlatTerrain(), SlopeTerrain(angle_deg=15.0, start=-2.0)):
        y = initial_state(model, terrain, start_xy=(0.3, -0.1), height=0.25)
        kc = model.kinematics(y)
        for w in kc.wheel_centers():
            n = terrain.normal(w[0], w[1])
            p_c = w - model.desc.wheel_radius * n
            gap = n[2] * (p_c[2] - terrain.height(p_c[0], p_c[1]))
            assert abs(gap) < 1e-6
        # base height above the contact midpoint
        assert y.pos[2] - terrain.height(y.pos[0], y.pos[1]) == pytest.approx(
            0.25, abs=0.02)


def test_initial_velocity_satisfies_rolling(model):
    terrain = SlopeTerrain(angle_deg=15.0, start=-2.0)
    y = initial_state(model, terrain, height=0.25, speed=1.0)
    n_l = terrain.normal(*model.kinematics(y).wheel_centers()[0][:2])
    n_r = terrain.normal(*model.kinematics(y).wheel_centers()[1][:2])
    cl = closed_loop_dynamics(model, model.kinematics(y), n_l, n_r)
    assert np.abs(cl.J_xz @ y.vel).max() < 1e-9
    # forward speed is preserved by the min-norm projection
    assert y.vel[:3] @ y.rot[:, 0] == pytest.approx(1.0, abs=0.05)


# -- statics and contact forces ---------------------------------------------

def test_static_equilibrium_zero_acceleration(model):
    terrain = FlatTerrain()
    y = balanced_state(model, terrain, height=0.25)
    tau, _ = static_actuation(model, y, terrain)
    udot, _ = forward_dynamics(model, y, contact(model, y, terrain), tau, terrain)
    assert np.abs(udot).max() < 1e-6


def test_contact_forces_support_weight(model):
    terrain = FlatTerrain()
    y = balanced_state(model, terrain, height=0.25)
    tau, _ = static_actuation(model, y, terrain)
    _, F_C = forward_dynamics(model, y, contact(model, y, terrain), tau, terrain)
    weight = model.desc.total_mass * GRAVITY
    # F_C = (x_l, z_l, x_r, z_r); vertical components carry the weight
    assert F_C[1] + F_C[3] == pytest.approx(weight, abs=0.5)
    assert abs(F_C[0] + F_C[2]) < 0.5
    # left/right share is symmetric on flat ground
    assert F_C[1] == pytest.approx(F_C[3], abs=0.5)


# -- ballistics --------------------------------------------------------------

def test_free_fall_com_parabola(model):
    y = initial_state(model, FlatTerrain(), height=0.25)
    y = MinimalState(pos=y.pos + [0.0, 0.0, 2.0], rot=y.rot.copy(),
                     qj=y.qj.copy(), vel=np.zeros(12))
    dt, n = 1e-3, 200
    com0, _ = model.kinematics(y).com
    e0 = mechanical_energy(model.kinematics(y))
    for _ in range(n):
        udot = forward_dynamics_free(model, y, np.zeros(6))
        u = y.vel + dt * udot
        y = MinimalState(pos=y.pos + dt * u[:3],
                         rot=project_to_so3(exp_so3(dt * u[3:6]) @ y.rot),
                         qj=y.qj + dt * u[6:], vel=u)
    t = n * dt
    com1, _ = model.kinematics(y).com
    # CoM falls on the analytic parabola (semi-implicit Euler is O(dt))
    assert com1[2] - com0[2] == pytest.approx(-0.5 * GRAVITY * t**2,
                                              abs=GRAVITY * t * dt)
    assert abs(com1[0] - com0[0]) < 1e-9 and abs(com1[1] - com0[1]) < 1e-9
    # energy conserved in free fall
    e1 = mechanical_energy(model.kinematics(y))
    assert abs(e1 - e0) / abs(e0) < 1e-3


# -- energy audit ------------------------------------------------------------

def test_zero_torque_frictionless_energy(model):
    terrain = FlatTerrain(mu=0.0)
    state = settled_hanging_state(model, terrain)
    # seed a leg swing consistent with the rolling constraints
    state.y.vel[6], state.y.vel[9] = 1.0, -1.0
    n = terrain.normal(*state.y.pos[:2])
    cl = closed_loop_dynamics(model, model.kinematics(state.y), n, n)
    kkt = np.block([[cl.H_y, -cl.J_xz.T], [cl.J_xz, np.zeros((4, 4))]])
    rhs = np.concatenate([np.zeros(12), -cl.J_xz @ state.y.vel])
    state.y.vel += np.linalg.solve(kkt, rhs)[:12]
    e0 = mechanical_energy(model.kinematics(state.y))
    worst = 0.0
    for _ in range(1000):                      # 1 s at dt = 1e-3
        state = step(model, state, contact(model, state.y, terrain), np.zeros(6), 1e-3,
                     terrain)
        e = mechanical_energy(model.kinematics(state.y))
        worst = max(worst, abs(e - e0))
    assert worst / abs(e0) < 1e-3
    assert state.dissipated == pytest.approx(0.0, abs=1e-9)


def test_penetration_stays_below_1mm(model):
    terrain = FlatTerrain()
    y = balanced_state(model, terrain, height=0.25)
    state = SimState(y=y, F_C=np.zeros(4))
    tau, _ = static_actuation(model, y, terrain)
    worst = 0.0
    for _ in range(500):
        state = step(model, state, contact(model, state.y, terrain), tau, 1e-3, terrain)
        kc = model.kinematics(state.y)
        for w in kc.wheel_centers():
            n = terrain.normal(w[0], w[1])
            p_c = w - model.desc.wheel_radius * n
            worst = max(worst, terrain.height(p_c[0], p_c[1]) - p_c[2])
    assert worst < 1e-3


def test_work_audit_tracks_energy(model):
    terrain = FlatTerrain()
    y = balanced_state(model, terrain, height=0.25)
    state = SimState(y=y, F_C=np.zeros(4))
    tau = np.array([0.0, 0.0, 1.5, 0.0, 0.0, 1.5])   # drive both wheels
    e0 = mechanical_energy(model.kinematics(y))
    for _ in range(500):
        state = step(model, state, contact(model, state.y, terrain), tau, 1e-3, terrain)
    e1 = mechanical_energy(model.kinematics(state.y))
    resid = abs((e1 - e0) - (state.work_in - state.dissipated))
    # open-loop hard acceleration; first-order integration error dominates
    assert resid / max(abs(state.work_in), 1.0) < 2e-2


# -- integrator order --------------------------------------------------------

def test_integrator_first_order_convergence(model):
    terrain = SlopeTerrain(angle_deg=10.0, start=-3.0, mu=0.0)

    def final_height(dt):
        state = SimState(y=initial_state(model, terrain, height=0.25),
                         F_C=np.zeros(4))
        for _ in range(int(round(0.4 / dt))):
            state = step(model, state, contact(model, state.y, terrain), np.zeros(6), dt,
                         terrain)
        return state.y.pos[2]

    ref = final_height(1e-4)
    e1 = abs(final_height(2e-3) - ref)
    e2 = abs(final_height(1e-3) - ref)
    assert e2 < e1                       # error shrinks with the step
    assert e1 / max(e2, 1e-12) > 1.4     # roughly first order


def test_rotation_update_matches_svd_projection():
    """The Newton-Schulz step that re-orthonormalizes exp(dt w) R agrees with
    the SVD polar factor at every one of 16,000 random steps (base rates up
    to 10 rad/s at 1 kHz), and the integrated rotation stays orthonormal."""
    rng = np.random.default_rng(3)
    R = exp_so3(rng.uniform(-1.0, 1.0, 3))
    worst_step = worst_orth = 0.0
    for _ in range(16000):
        M = exp_so3(rng.uniform(-10.0, 10.0, 3) * 1e-3) @ R
        R = project_to_so3(M)
        worst_step = max(worst_step, np.abs(R - svd_project_to_so3(M)).max())
        worst_orth = max(worst_orth, np.abs(R.T @ R - np.eye(3)).max())
    assert worst_step < 1e-13
    assert worst_orth < 1e-15
    assert np.linalg.det(R) > 0.0


@pytest.mark.parametrize("angle", [0.0, 1e-13, 1e-3, 0.7, 3.1])
def test_exp_so3_matches_matrix_form(angle):
    rng = np.random.default_rng(4)
    axis = rng.normal(size=3)
    w = angle * axis / np.linalg.norm(axis)
    np.testing.assert_allclose(exp_so3(w), exp_so3_matrix(w), rtol=0.0, atol=1e-15)


# -- block impact ------------------------------------------------------------

def test_block_impact_impulse_and_constraints(model):
    terrain = FlatTerrain()
    y = initial_state(model, terrain, height=0.25)
    state = SimState(y=y, F_C=np.zeros(4))
    e0 = mechanical_energy(model.kinematics(y))
    imp = apply_block_impact(model, state, terrain, mass=9.0, drop_height=0.55)
    assert np.linalg.norm(imp) == pytest.approx(
        9.0 * np.sqrt(2.0 * GRAVITY * 0.55), rel=1e-12)
    # post-impact velocity still satisfies the rolling constraints
    n_l = terrain.normal(*model.kinematics(state.y).wheel_centers()[0][:2])
    n_r = terrain.normal(*model.kinematics(state.y).wheel_centers()[1][:2])
    cl = closed_loop_dynamics(model, model.kinematics(state.y), n_l, n_r)
    assert np.abs(cl.J_xz @ state.y.vel).max() < 1e-8
    # injected kinetic energy is booked in the work audit
    e1 = mechanical_energy(model.kinematics(state.y))
    assert state.work_in == pytest.approx(e1 - e0, abs=1e-9)
    assert e1 > e0


def test_block_impact_without_direction_strikes_the_top_plate(model, monkeypatch):
    """A scenario's block impact with no direction, or a zero one, pushes
    along -base z; a push without a direction still pushes along world +x."""
    hits = []

    def recorded(model, state, *args):
        imp = apply_block_impact(model, state, *args)
        hits.append((imp, state.y.rot[:, 2].copy()))
        return imp

    monkeypatch.setattr(simulator, "apply_block_impact", recorded)
    impact = {"kind": "block_impact", "t_start": 0.0, "mass": 6.0, "drop_height": 0.4}
    scenario = load_scenario(
        str(files("wbcsim").joinpath("data/scenarios/slope_impact.scn")),
        {"duration": 0.004, "disturbances": [
            impact, {**impact, "direction": [0.0, 0.0, 0.0]},
            {"kind": "push", "t_start": 0.0, "duration": 0.1, "f_max": 1.0}]})
    assert np.array_equal(scenario.disturbances[2].direction, [1.0, 0.0, 0.0])
    run_scenario(model, scenario, seed=0)
    J_mag = 6.0 * np.sqrt(2.0 * GRAVITY * 0.4)
    assert len(hits) == 2
    for imp, base_z in hits:
        assert np.allclose(imp, -J_mag * base_z, rtol=0.0, atol=1e-12)


def test_block_impact_rejects_negative(model):
    state = SimState(y=initial_state(model, FlatTerrain()), F_C=np.zeros(4))
    with pytest.raises(ValueError):
        apply_block_impact(model, state, FlatTerrain(), mass=-1.0, drop_height=0.1)


# -- push profile ------------------------------------------------------------

def test_push_wrench_ramp():
    d = Disturbance(kind="push", t_start=1.0, duration=2.0, f_max=8.0,
                    direction=np.array([1.0, 0.0, 0.0]))
    assert _push_wrench(d, 0.5) is None
    assert _push_wrench(d, 3.5) is None
    w = _push_wrench(d, 2.0)
    assert np.allclose(w, [4.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    w = _push_wrench(d, 2.9999)
    assert w[0] == pytest.approx(8.0, abs=0.01)


# -- synthetic lidar ---------------------------------------------------------

def test_synth_pointcloud_on_surface():
    terrain = SlopeTerrain(angle_deg=15.0, start=0.0)
    rng = random.Random(0)
    cloud = synth_pointcloud(terrain, (1.0, 0.0), SensorConfig(noise=0.0), rng)
    assert len(cloud) == 1200
    r = np.hypot(cloud.points[:, 0] - 1.0, cloud.points[:, 1])
    assert r.max() <= 2.5 + 1e-9
    zs = np.array([terrain.height(x, y) for x, y in cloud.points[:, :2]])
    assert np.abs(cloud.points[:, 2] - zs).max() < 1e-12


def test_uniforms_are_the_top_53_bits_of_each_little_endian_word():
    """The lidar's uniforms for seed 1, pinned, and each the top 53 bits of
    a little-endian 64-bit word of the generator's bytes over 2**53."""
    assert uniforms(random.Random(1), 4).tolist() == [
        0.5692038708679295, 0.802265059400218, 0.06310682412324808, 0.11791870213464573]
    raw = random.Random(7).randbytes(8 * 1000)
    want = [(int.from_bytes(raw[i:i + 8], "little") >> 11) / 2**53
            for i in range(0, len(raw), 8)]
    u = uniforms(random.Random(7), 1000)
    assert u.tolist() == want
    assert 0.0 <= u.min() and u.max() < 1.0
    assert uniforms(random.Random(7), 0).shape == (0,)


def test_gaussians_are_box_muller_over_the_uniforms():
    """Each pair is Box-Muller over uniforms u and v, half the draws apart,
    and 200,001 draws have mean 0 and standard deviation 1 within 5 standard
    errors."""
    n = 200_001
    g = gaussians(random.Random(3), n)
    u = uniforms(random.Random(3), n + 1)
    half = (n + 1) // 2
    for i in (0, 1, half - 1):
        r = math.sqrt(-2.0 * math.log(1.0 - u[i]))
        assert g[i] == pytest.approx(r * math.cos(2.0 * math.pi * u[half + i]), abs=1e-12)
    assert g[half] == pytest.approx(math.sqrt(-2.0 * math.log(1.0 - u[0]))
                                    * math.sin(2.0 * math.pi * u[half]), abs=1e-12)
    assert len(g) == n and np.isfinite(g).all()
    assert abs(g.mean()) < 5.0 / math.sqrt(n)
    assert abs(g.std() - 1.0) < 5.0 / math.sqrt(2.0 * n)


# -- scenario parsing --------------------------------------------------------

def test_scenario_parse_errors(tmp_path):
    with pytest.raises(ScenarioError, match="terrain"):
        Scenario.from_dict({"duration": 1.0})
    with pytest.raises(ScenarioError, match="unknown scenario key"):
        Scenario.from_dict({"terrain": {"kind": "flat"}, "speeed": 1.0})
    with pytest.raises(ScenarioError, match="estimation_mode"):
        Scenario.from_dict({"terrain": {"kind": "flat"},
                            "estimation_mode": "psychic"})
    with pytest.raises(ScenarioError, match="kind"):
        Scenario.from_dict({"terrain": {"kind": "flat"},
                            "disturbances": [{"kind": "tornado"}]})
    with pytest.raises(ScenarioError, match="duration"):
        Scenario.from_dict({"terrain": {"kind": "flat"}, "duration": -1.0})
    bad = tmp_path / "bad.scn"
    bad.write_text("- just\n- a\n- list\n")
    with pytest.raises(ScenarioError, match="mapping"):
        load_scenario(str(bad), {})


def test_bundled_scenarios_parse():
    from importlib.resources import files
    base = files("wbcsim").joinpath("data/scenarios")
    names = {"disturbance", "asymmetric", "slope_impact", "slope_uturn"}
    for name in names:
        sc = load_scenario(str(base.joinpath(f"{name}.scn")), {})
        assert sc.name == name
        assert sc.duration > 0.0


@pytest.mark.parametrize("control_rate", [500.0, 250.0])
def test_unset_sim_rate_is_the_control_rate(control_rate):
    """Unset, the physics rate is the control rate: one substep a cycle."""
    sc = Scenario.from_dict({"terrain": {"kind": "flat"}, "control_rate": control_rate})
    assert sc.sim_rate == control_rate
    assert sc.timing()[:2] == (1.0 / control_rate, 1)


def test_segment_at_takes_segments_in_start_time_order():
    sc = Scenario.from_dict({"terrain": {"kind": "flat"}, "reference": [
        {"t_start": 1.0, "speed": 1.0}, {"t_start": 0.0, "speed": 2.0}]})
    assert [r.t_start for r in sc.reference] == [1.0, 0.0]    # as written
    assert sc.segment_at(0.5).speed == 2.0
    assert sc.segment_at(1.5).speed == 1.0


# -- determinism -------------------------------------------------------------

def test_run_scenario_deterministic(model):
    sc = Scenario.from_dict({"name": "det", "terrain": {"kind": "flat"},
                             "duration": 0.3})
    rec1, m1 = run_scenario(model, sc, seed=7)
    rec2, m2 = run_scenario(model, sc, seed=7)
    d1, d2 = m1.to_dict(), m2.to_dict()
    assert d1.keys() == d2.keys()
    for k in d1:
        both_nan = (isinstance(d1[k], float) and np.isnan(d1[k])
                    and isinstance(d2[k], float) and np.isnan(d2[k]))
        assert both_nan or d1[k] == d2[k], k
    assert np.array_equal(rec1, rec2)       # bit-identical


def test_short_stationkeeping(model):
    sc = Scenario.from_dict({"name": "hold", "terrain": {"kind": "flat"},
                             "duration": 0.5})
    _, m = run_scenario(model, sc, seed=0)
    assert not m.fell and not m.failed
    assert m.height_mean == pytest.approx(0.25, abs=0.01)
    assert m.energy_residual_frac < 0.01


def test_disturbance_stands_at_mu_5(model):
    """At the default physics rate (the 500 Hz control rate) the lateral
    friction damper stays stable at mu 5; at 1 kHz physics this run fell
    at 0.090 s."""
    scenario = load_scenario(
        str(files("wbcsim").joinpath("data/scenarios/disturbance.scn")),
        {"duration": 0.3, "terrain.mu": 5.0})
    log, m = run_scenario(model, scenario, seed=3)
    assert not m.fell and not m.failed
    assert len(log) == 150


# -- fall rule ----------------------------------------------------------------

def _horizontal_slope_impact(model, dy=0.0):
    scenario = load_scenario(
        str(files("wbcsim").joinpath("data/scenarios/slope_impact.scn")),
        {"estimation_mode": "horizontal_normal"})
    scenario.start_xy = scenario.start_xy + np.array([0.0, dy])
    return run_scenario(model, scenario, seed=5)[1]


@pytest.mark.parametrize("dy", [0.0, 1e-9, 1e-6, 0.01, 0.3, -0.2])
def test_horizontal_slope_impact_falls_at_every_offset(model, dy):
    """The symmetric run's asymmetric modes grow from roundoff; whichever way
    they grow, the ground ends up pulling a wheel down, which is a fall."""
    m = _horizontal_slope_impact(model, dy)
    assert m.fell and not m.failed


def test_horizontal_slope_impact_falls_with_inertia_nudged_one_ulp(model, monkeypatch):
    tree = dynamics.spanning_tree_dynamics

    def nudged(kc):
        d = tree(kc)
        return dynamics.SpanningTreeDynamics(H=np.nextafter(d.H, np.inf), C=d.C)

    monkeypatch.setattr(dynamics, "spanning_tree_dynamics", nudged)
    m = _horizontal_slope_impact(model)
    assert m.fell and not m.failed


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("normal, problem", [
    ([0.0, 0.0, 2.0], "is not unit length"),
    ([0.0, 0.0, -1.0], "must point into the upper hemisphere"),
    ([1.0, 0.0, 1e-9], "is parallel to the heading"),   # the start heading is +x
])
def test_bad_estimated_normal_fails_the_run_naming_side(model, monkeypatch, side,
                                                         normal, problem):
    """A bad normal from the estimator ends the run as a failure, not a traceback."""
    def query(nmap, xy, heading, lookahead, filt):
        left = xy[1] > 0.0           # the left wheel starts at +y
        return np.array(normal) if left == (side == "left") else np.array([0.0, 0.0, 1.0])

    monkeypatch.setattr(simulator, "query_normal", query)
    scenario = load_scenario(str(files("wbcsim").joinpath("data/scenarios/disturbance.scn")),
                             {"duration": 0.01, "estimation_mode": "estimated_normal"})
    _, m = run_scenario(model, scenario, seed=1)
    assert m.failed and not m.fell
    assert m.failure == f"t=0.000: {side} ground normal {problem}"


# -- per-cycle sharing ----------------------------------------------------------

@pytest.mark.parametrize("sim_rate, states", [(None, 1), (1000.0, 2)],
                         ids=["default_rate", "sim_rate_1000"])
@pytest.mark.parametrize("name, mode, own_records", [
    ("disturbance", "true_normal", 0), ("slope_uturn", "estimated_normal", 1),
    ("disturbance", "horizontal_normal", 1)])
def test_each_cycle_builds_each_quantity_once_per_state(model, monkeypatch, name, mode,
                                                        own_records, sim_rate, states):
    """Between two HQP solves lie one control cycle and its physics substeps,
    which step from `states` states: one at the default rate, which is the
    control rate, and two at sim_rate=1000.  Each state gets one cache, one
    tree evaluation and one plant contact record, the controller's state's
    serving the cycle and the first substep; a controller whose normals are
    not the true ones builds one more contact record at its own normals."""
    counts = Counter()

    def counted(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def count_property(key):
        prop = functools.cached_property(counted(key, KinematicsCache.__dict__[key].func))
        prop.__set_name__(KinematicsCache, key)
        monkeypatch.setattr(KinematicsCache, key, prop)

    monkeypatch.setattr(KinematicsCache, "__init__",
                        counted("builds", KinematicsCache.__init__))
    monkeypatch.setattr(simulator, "closed_loop_dynamics",
                        counted("closed_loop", simulator.closed_loop_dynamics))
    monkeypatch.setattr(dynamics, "spanning_tree_dynamics",
                        counted("tree", dynamics.spanning_tree_dynamics))
    monkeypatch.setattr(KinematicsCache, "_point_jacobians",
                        counted("point_jacobians", KinematicsCache._point_jacobians))
    monkeypatch.setattr(RobotModel, "task_jacobians",
                        counted("task_jacobians", RobotModel.task_jacobians))
    count_property("heading_axis")
    count_property("com_jacobian")
    per_cycle = []
    solve = HierarchySolver.solve

    def marked_solve(self, *args):
        per_cycle.append(counts.copy())
        return solve(self, *args)

    monkeypatch.setattr(HierarchySolver, "solve", marked_solve)
    rate = {} if sim_rate is None else {"sim_rate": sim_rate}
    scenario = load_scenario(
        str(files("wbcsim").joinpath(f"data/scenarios/{name}.scn")),
        {"duration": 0.04, "estimation_mode": mode, **rate})
    assert scenario.timing()[1] == states
    _, m = run_scenario(model, scenario, seed=1)
    assert not m.failed and not m.fell
    assert len(per_cycle) == 20
    expected = {"builds": states, "closed_loop": states + own_records, "tree": states,
                "heading_axis": 1, "com_jacobian": 1, "point_jacobians": states,
                "task_jacobians": 1}
    for before, after in zip(per_cycle, per_cycle[1:]):
        assert {k: after[k] - before[k] for k in expected} == expected


@pytest.mark.parametrize("name, mode", [("disturbance", "true_normal"),
                                        ("slope_uturn", "estimated_normal"),
                                        ("slope_impact", "horizontal_normal")])
def test_controller_cycle_is_the_runs_first_cycle(model, name, mode):
    """One Controller.cycle from the run's initial state gives the first
    logged cycle of run_scenario bit for bit: the demos and any trace of
    the cycle see the cycle the run executes."""
    scenario = load_scenario(str(files("wbcsim").joinpath(f"data/scenarios/{name}.scn")),
                             {"duration": 0.01, "estimation_mode": mode})
    log, _ = run_scenario(model, scenario, seed=5)
    seg0 = scenario.segment_at(0.0)
    y0 = initial_state(model, scenario.terrain, scenario.start_xy, scenario.start_yaw,
                       seg0.height, seg0.speed)
    kc = model.kinematics(y0)
    cl = contact_dynamics(model, kc, scenario.terrain)
    res = Controller(model, scenario, seed=5).cycle(kc, cl, 0.0)
    row = dict(zip(LOG_COLUMNS, log[0]))
    for got, cols in ((res.sol.tau_a, ("tau_hl", "tau_kl", "tau_wl",
                                       "tau_hr", "tau_kr", "tau_wr")),
                      (res.Lambda, ("phi", "h", "alpha", "beta", "gamma")),
                      (res.Lambda_com, ("r_x", "dr_x", "s_x", "ds_x"))):
        assert np.array_equal(got, [row[c] for c in cols])
    assert (res.psi_hat, res.psi_true) == (row["psi_hat"], row["psi_true"])
    if mode == "estimated_normal":
        assert res.psi_hat != res.psi_true     # the lidar map, not the terrain


# -- LAPACK use ------------------------------------------------------------------

# the numpy.linalg routines other than solve (an LU) and norm (no factorization)
FACTORIZATIONS = ("eig", "eigvals", "eigh", "eigvalsh", "lstsq", "inv", "det", "svd",
                  "qr", "cholesky", "pinv")


@pytest.mark.parametrize("name, overrides, allowed", [
    ("flat_push", {}, ()),
    # the block strikes at 0.1 s, and torque bounds hold in the cycles after it
    ("slope_saturate", {"duration": 0.3, "disturbances": [
        {"kind": "block_impact", "t_start": 0.1, "mass": 6.0, "drop_height": 0.4}]}, ()),
    ("slope_lidar", {}, ()),
])
def test_run_factorizes_only_by_solve(monkeypatch, name, overrides, allowed):
    """Building the robot model and running a true-normal run with a push, a
    horizontal-normal run with a block impact and torque bounds, or a lidar
    run, whose PCA takes its eigenvalues and normals in closed form, calls
    LAPACK only through np.linalg.solve."""
    def refused(fn):
        def call(*args, **kwargs):
            raise AssertionError(f"np.linalg.{fn} called")
        return call

    for fn in FACTORIZATIONS:
        if fn not in allowed:
            monkeypatch.setattr(np.linalg, fn, refused(fn))
    scenario_name, seed, params = reference_runs.CONFIGS[name]
    scenario = load_scenario(
        str(files("wbcsim").joinpath(f"data/scenarios/{scenario_name}.scn")),
        {**params, "duration": reference_runs.WINDOW, **overrides})
    model = RobotModel()
    log, m = run_scenario(model, scenario, seed=seed)
    assert not m.failed and not m.fell
    if name == "slope_saturate":
        tau = log[:, [LOG_COLUMNS.index(c) for c in LOG_COLUMNS if c.startswith("tau_")]]
        assert np.abs(tau).max() == model.desc.torque_limit


class _TypeRecordingSlope(SlopeTerrain):
    """A slope that records the types of the coordinates it is queried at."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.arg_types = set()

    def height(self, x, y):
        self.arg_types.update((type(x), type(y)))
        return super().height(x, y)

    def grad(self, x, y):
        self.arg_types.update((type(x), type(y)))
        return super().grad(x, y)


def test_run_queries_the_terrain_with_python_floats(model):
    """The start pose, the true normals, the contact gap and the lidar query
    the terrain with Python floats, the arithmetic terrain.py is written for:
    on numpy scalars an overflow to inf prints a RuntimeWarning."""
    terrain = _TypeRecordingSlope(angle_deg=10.0, start=0.05, blend=0.2)
    scenario = Scenario(terrain=terrain, duration=0.02, estimation_mode="estimated_normal",
                        disturbances=[Disturbance(kind="block_impact", t_start=0.01,
                                                  mass=0.5, drop_height=0.1)])
    _, m = run_scenario(model, scenario, seed=0)
    assert not m.failed and not m.fell
    assert terrain.arg_types == {float}
