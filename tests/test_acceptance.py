"""Acceptance suite: one end-to-end check per top-level capability.

Covers dynamics oracle equivalence, loop-closure reduction, energy
conservation, hierarchical-QP oracle equivalence, LQR design validity,
ground-normal estimation accuracy, and the four bundled scenarios
(push recovery, asymmetric ground, slope impact A/B, slope traverse with
estimated normals), finishing with a determinism and wall-time budget
check over the scenario runs performed in this module.
"""

import json
import random
import time
from collections import Counter
from importlib.resources import files

import numpy as np
import pytest

from wbcsim.cli import _plane_cloud, main as cli_main
from wbcsim.dynamics import (
    closed_loop_dynamics,
    mechanical_energy,
    spanning_tree_dynamics,
)
from wbcsim.model import NV_TREE
from wbcsim.scenario import SensorConfig, load_scenario
from wbcsim.simulator import LOG_COLUMNS, Controller, run_scenario, step, synth_pointcloud
from wbcsim.task_control import balance_accel, lqr_gain
from wbcsim.terrain import FlatTerrain, SlopeTerrain
from wbcsim.terrain_estimation import NormalMap, estimate_normal, incline_angle

from conftest import random_minimal_state
from helpers import brute_force_k, contact, perturbed
from hqp_cascade import solve_hierarchy
from test_dynamics import rnea_oracle
from test_hqp import nullspace_lex_oracle, random_problem, to_levels
from test_model import tangent_difference
from test_sim import settled_hanging_state

EZ = np.array([0.0, 0.0, 1.0])
SCENARIO_DIR = files("wbcsim").joinpath("data/scenarios")

# the eight bundled-scenario runs of this module as (scenario, seed,
# overrides); the final test asserts that all of them together stay inside
# the time budget, and runs any that did not run earlier in the same pytest run
HORIZONTAL = (("estimation_mode", "horizontal_normal"),)
SUITE_RUNS = (
    ("disturbance", 3, ()),                 # push recovery, through the CLI
    ("asymmetric", 4, ()),
    ("slope_impact", 5, ()),
    ("slope_impact", 5, HORIZONTAL),
    ("slope_uturn", 3, ()),
    ("slope_uturn", 3, HORIZONTAL),
    ("disturbance", 3, ()),                 # the determinism pair
    ("disturbance", 3, ()),
)
# wall-clock seconds of each run so far, keyed like SUITE_RUNS
_SCENARIO_SECONDS = {}


def _record(name, seed, overrides, seconds):
    key = (name, seed, tuple(sorted((overrides or {}).items())))
    _SCENARIO_SECONDS.setdefault(key, []).append(seconds)


def _run_bundled(model, name, seed, overrides=None):
    scenario = load_scenario(str(SCENARIO_DIR.joinpath(f"{name}.scn")),
                             overrides or {})
    t0 = time.perf_counter()
    log, metrics = run_scenario(model, scenario, seed=seed)
    _record(name, seed, overrides, time.perf_counter() - t0)
    return log, metrics


# -- dynamics ----------------------------------------------------------------

def test_inertia_matches_inverse_dynamics_oracle_100_states(model):
    """H from the library equals the unit-acceleration inverse-dynamics
    oracle column by column, at 100 random states, in under 10 s."""
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        y = random_minimal_state(rng)
        q = model.expand_coordinates(y)
        dyn = spanning_tree_dynamics(model.kinematics(y))
        C = rnea_oracle(model.desc, q, np.zeros(NV_TREE))
        H_oracle = np.column_stack(
            [rnea_oracle(model.desc, q, e) - C for e in np.eye(NV_TREE)])
        worst = max(worst, np.abs(dyn.H - H_oracle).max())
    assert worst < 1e-9
    assert time.perf_counter() - t0 < 10.0


def test_loop_closure_map_and_kinetic_energy_preservation(model):
    """G equals central finite differences of the coordinate expansion at 100
    random states; the reduction preserves kinetic energy exactly."""
    rng = np.random.default_rng(101)
    eps = 1e-7
    for _ in range(100):
        y = random_minimal_state(rng)
        u = rng.uniform(-1.0, 1.0, 12)
        qp = model.expand_coordinates(perturbed(y, u, eps))
        qm = model.expand_coordinates(perturbed(y, u, -eps))
        fd = tangent_difference(qp, qm, 2.0 * eps)
        assert np.abs(fd - model.G @ u).max() < 1e-6

        dyn = spanning_tree_dynamics(model.kinematics(y))
        cl = closed_loop_dynamics(model, model.kinematics(y), EZ, EZ)
        u16 = model.G @ y.vel
        assert abs(y.vel @ cl.H_y @ y.vel - u16 @ dyn.H @ u16) < 1e-10


def test_zero_torque_frictionless_energy_conservation(model):
    """Unactuated frictionless simulation holds mechanical energy to 0.1%
    over 1 s at dt = 1e-3, starting from a constraint-consistent swing."""
    terrain = FlatTerrain(mu=0.0)
    state = settled_hanging_state(model, terrain)
    state.y.vel[6], state.y.vel[9] = 1.0, -1.0
    n = terrain.normal(*state.y.pos[:2])
    cl = closed_loop_dynamics(model, model.kinematics(state.y), n, n)
    kkt = np.block([[cl.H_y, -cl.J_xz.T], [cl.J_xz, np.zeros((4, 4))]])
    rhs = np.concatenate([np.zeros(12), -cl.J_xz @ state.y.vel])
    state.y.vel += np.linalg.solve(kkt, rhs)[:12]

    e0 = mechanical_energy(model.kinematics(state.y))
    worst = 0.0
    for _ in range(1000):
        state = step(model, state, contact(model, state.y, terrain), np.zeros(6), 1e-3,
                     terrain)
        e = mechanical_energy(model.kinematics(state.y))
        worst = max(worst, abs(e - e0))
    assert worst / abs(e0) < 1e-3


# -- control stack -----------------------------------------------------------

def test_hqp_matches_nullspace_oracle_200_problems():
    """200 random 22-dim 6-level hierarchies: residual profile matches the
    nullspace lexicographic oracle to 1e-7, monotonicity exact to 1e-9."""
    rng = np.random.default_rng(102)
    for _ in range(200):
        levels, E, f = random_problem(rng)
        sol = solve_hierarchy(to_levels(levels), E, f)
        _, res_oracle = nullspace_lex_oracle(levels, E, f)
        assert np.allclose(sol.residuals, res_oracle, atol=1e-7)
        for i, (A, b) in enumerate(levels):
            assert np.linalg.norm(A @ sol.x - b) <= sol.residuals[i] + 1e-9


def test_lqr_design_validity():
    """CARE residual < 1e-8; closed loop strictly stable over the working
    height range; linear closed loop settles from 0.05 m in under 3 s."""
    d = lqr_gain(0.25)
    resid = np.abs(d.A.T @ d.P + d.P @ d.A
                   - d.P @ d.B @ d.B.T @ d.P / d.R + d.Q).max()
    assert resid < 1e-8

    for r_z in np.linspace(0.1, 0.4, 31):
        dz = lqr_gain(r_z)
        assert np.linalg.eigvals(dz.A - dz.B @ dz.K[None, :]).real.max() < 0.0

    dt = 1e-3
    x = np.array([0.05, 0.0, 0.0, 0.0])
    settle = None
    for i in range(int(5.0 / dt)):
        u = balance_accel(d.K, np.zeros(4), x)
        x = x + dt * (d.A @ x + d.B.ravel() * u)
        if abs(x[0]) > 0.02 * 0.05:
            settle = None
        elif settle is None:
            settle = i * dt
    assert settle is not None and settle < 3.0


# -- normal estimation -------------------------------------------------------

def test_normal_estimation_accuracy():
    """Noiseless planes exact to 0.01 deg; noisy 15-deg plane mean error
    < 2 deg over 1000 trials; lidar ramp pipeline mean error <= 3 deg;
    adaptive neighborhood equals a brute-force entropy scan.  < 60 s."""
    t0 = time.perf_counter()
    rng = random.Random(103)

    for angle in (0.0, 15.0, 25.0, 45.0):
        cloud, n_true = _plane_cloud(rng, angle, n=400, noise=0.0)
        for _ in range(20):
            q = cloud.points[rng.randrange(len(cloud))]
            n, _ = estimate_normal(cloud, q, 30, 30)
            err = np.degrees(np.arccos(np.clip(n @ n_true, -1.0, 1.0)))
            assert err < 0.01

    _, n_true = _plane_cloud(rng, 15.0, n=1, noise=0.0)
    errs = []
    for _ in range(1000):
        cloud, _ = _plane_cloud(rng, 15.0, n=120, noise=0.01)
        n, _ = estimate_normal(cloud, np.zeros(3), 30, 30)
        errs.append(np.degrees(np.arccos(np.clip(n @ n_true, -1.0, 1.0))))
    assert np.mean(errs) < 2.0

    terrain = SlopeTerrain(angle_deg=15.0, start=0.5, blend=0.5)
    nmap = NormalMap(k_min=30, k_max=200)
    sensor = SensorConfig(radius=2.0, points=5000, noise=0.05)
    for cx in np.arange(-1.0, 4.5, 0.5):
        nmap.update(synth_pointcloud(terrain, (cx, 0.0), sensor, rng))
    ramp_errs = [abs(incline_angle(nmap.lookup(x, 0.0)) - 15.0)
                 for x in np.linspace(1.2, 3.8, 27)]
    assert np.mean(ramp_errs) <= 3.0

    for _ in range(10):
        angle = rng.uniform(0.0, 40.0)
        cloud, _ = _plane_cloud(rng, angle, n=150, noise=0.02)
        q = cloud.points[rng.randrange(len(cloud))]
        assert estimate_normal(cloud, q, 10, 60)[1] == brute_force_k(cloud, q, 10, 60)

    assert time.perf_counter() - t0 < 60.0


# -- bundled scenarios -------------------------------------------------------

def test_push_recovery_within_one_second(tmp_path):
    """Ramped push and release: the robot recovers its CoM station within
    1 s, never falls, and pitch stays below 0.2 rad.  Run through the CLI
    to exercise the whole entry point."""
    out = tmp_path / "disturbance"
    t0 = time.perf_counter()
    rc = cli_main(["--scenario",
                   str(SCENARIO_DIR.joinpath("disturbance.scn")),
                   "--out", str(out), "--seed", "3"])
    _record("disturbance", 3, None, time.perf_counter() - t0)
    assert rc == 0
    m = json.loads((out / "metrics.json").read_text())
    assert m["fell"] is False and m["failed"] is False
    assert m["settle_time"] < 1.0
    assert m["max_abs_beta"] < 0.2


def test_asymmetric_ground_height_and_roll(model):
    """Traversing the 0.1 m split-level support holds the base height within
    1 cm of the 0.25 m reference and roll within 0.04 rad."""
    log, m = _run_bundled(model, "asymmetric", seed=4)
    assert not m.fell and not m.failed
    h = log[:, LOG_COLUMNS.index("h")]
    alpha = log[:, LOG_COLUMNS.index("alpha")]
    assert np.abs(h - 0.25).max() < 0.01
    assert np.abs(alpha).max() < 0.04


def test_slope_impact_survives_only_with_true_normals(model):
    """Identical 25-deg-slope block impact: true-normal control survives,
    horizontal-normal control falls."""
    _, m_true = _run_bundled(model, "slope_impact", seed=5)
    assert m_true.fell is False and not m_true.failed
    _, m_horiz = _run_bundled(model, "slope_impact", seed=5,
                              overrides={"estimation_mode": "horizontal_normal"})
    assert m_horiz.fell is True


def test_slope_traverse_estimated_normals_reduce_com_deviation(model):
    """Entering/exiting the 15-deg slope, CoM tracking deviation is strictly
    smaller with estimated normals than with horizontal normals."""
    _, m_est = _run_bundled(model, "slope_uturn", seed=3)
    assert not m_est.fell and not m_est.failed
    _, m_horiz = _run_bundled(model, "slope_uturn", seed=3,
                              overrides={"estimation_mode": "horizontal_normal"})
    assert m_est.com_dev_max < m_horiz.com_dev_max
    reduction = 100.0 * (1.0 - m_est.com_dev_max / m_horiz.com_dev_max)
    print(f"CoM deviation reduction with estimated normals: {reduction:.1f}% "
          f"({m_est.com_dev_max:.3f} vs {m_horiz.com_dev_max:.3f} m)")


def test_com_deviation_is_measured_against_the_tracked_reference(model, monkeypatch):
    """Through the U-turn the controller re-anchors its CoM reference to the
    new heading; com_dev_max measures the CoM against that reference (about
    0.38 m at seed 3), not against a path that keeps growing through the
    turn while the CoM coordinate changes sign (4.75 m)."""
    tracked = []
    cycle = Controller.cycle

    def observed(self, kc, cl, t):
        res = cycle(self, kc, cl, t)
        s_ref = self.s_ref - self.scenario.segment_at(t).speed * self.dt
        tracked.append(abs(res.Lambda_com[2] - s_ref))
        return res

    monkeypatch.setattr(Controller, "cycle", observed)
    log, m = _run_bundled(model, "slope_uturn", seed=3)
    assert not m.fell and not m.failed
    assert len(tracked) == len(log)
    assert abs(m.com_dev_max - max(tracked)) < 1e-9
    assert abs(m.com_dev_max - 0.378) < 0.02


def test_scenario_suite_deterministic_and_within_time_budget(model):
    """Same seed twice gives bit-identical logs, and all bundled-scenario
    runs in this module complete well inside the 5-minute budget."""
    rec1, m1 = _run_bundled(model, "disturbance", seed=3)
    rec2, m2 = _run_bundled(model, "disturbance", seed=3)
    assert np.array_equal(rec1, rec2)
    assert m1.settle_time == m2.settle_time

    done = Counter({k: len(v) for k, v in _SCENARIO_SECONDS.items()})
    for (name, seed, overrides), n in (Counter(SUITE_RUNS) - done).items():
        for _ in range(n):
            _run_bundled(model, name, seed, dict(overrides))
    runs = [t for v in _SCENARIO_SECONDS.values() for t in v]
    total = sum(runs)
    print(f"scenario suite wall time: {total:.1f} s over {len(runs)} runs")
    assert total < 300.0
